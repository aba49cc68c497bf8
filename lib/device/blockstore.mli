(** Sparse backing store for simulated media. Devices carry real bytes so
    file-system correctness is checked end to end, but space is
    allocated only where blocks have been written. Unwritten blocks read
    back as zeros, like a freshly formatted medium.

    The store is sparse at the grain of an {e extent}: 16 contiguous
    blocks (64 KB at 4 KB blocks, the disk model's MAXPHYS transfer
    grain). An extent is allocated on the first write to any of its
    blocks. Extents are shared copy-on-write: {!share} and {!copy} hand
    whole extents to another store by reference, and the first
    {!write_from} or {!erase_block} into a shared extent gives the
    writing store its own copy of the bytes (a write covering the whole
    extent takes a fresh buffer and copies nothing). Bytes no other
    store references are overwritten in place. So a segment moves
    between stores — jukebox volume, fetch image, cache disk — by
    reference, and no reader can see another store's later writes. The
    price is the grain: a sparse 9 TB jukebox still costs nothing until
    used, but each extent it touches costs a full 64 KB even if only one
    block of it is written, and a live extent is freed only when
    {!erase_block} has forgotten every block in it (or {!erase} clears
    the store). *)

type t

val create : block_size:int -> nblocks:int -> t
val block_size : t -> int
val nblocks : t -> int

val read : t -> blk:int -> count:int -> Bytes.t
(** Returns [count * block_size] bytes. Out-of-range access raises
    [Invalid_argument]. *)

val read_into : t -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** Lands [count] blocks directly at [dst_off] in the caller's buffer —
    the zero-copy primitive under {!read}, one blit per extent touched.
    The view must lie inside [dst]. *)

val write : t -> blk:int -> Bytes.t -> unit
(** The byte length must be a positive multiple of the block size. *)

val write_from : t -> blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit
(** Writes [count] blocks from the view at [src_off] in [src] into the
    extents in place — the primitive under {!write}. Allocates only an
    extent written for the first time or one still shared with another
    store. *)

val share : src:t -> src_blk:int -> dst:t -> dst_blk:int -> count:int -> unit
(** Moves [count] blocks from [src] at [src_blk] to [dst] at [dst_blk]
    as a move by reference: each whole 16-block extent of the range
    (the two ranges must then sit at the same offset within their
    extents) is shared, not copied; the ragged edges are blitted. Every
    block of the range becomes written in [dst], exactly as
    {!write_from} of the same bytes would leave it; a never-written
    source extent lands as zeros without a temporary buffer. Block
    sizes must match, and two ranges in one store must not overlap. *)

(** Where a device transfer lands or comes from: a byte buffer and a
    byte offset into it, or a store and a block number in it. *)
type view = Buf of Bytes.t * int | Store of t * int

val check_view : block_size:int -> count:int -> view -> string -> unit
(** Raises [Invalid_argument "<what>: view outside buffer"] unless a
    [count]-block transfer fits in the view (and a store view has the
    given block size). *)

val shift : block_size:int -> view -> int -> view
(** [shift ~block_size v n] is the view [n] blocks past [v]'s origin. *)

val read_view : t -> blk:int -> count:int -> view -> unit
(** Moves [count] blocks at [blk] to the view: {!read_into} for a
    buffer, {!share} for a store. *)

val write_view : t -> blk:int -> count:int -> view -> unit
(** Moves [count] blocks from the view to [blk]: {!write_from} for a
    buffer, {!share} for a store. *)

val fold_bytes : t -> blk:int -> count:int -> init:'a -> ('a -> Bytes.t -> int -> int -> 'a) -> 'a
(** Folds over the bytes of a block range in order without copying
    them out: one call [f acc buf off len] per extent touched, where
    the piece is [len] bytes at [off] in [buf]. Unwritten blocks are
    presented as zeros. [buf] must not be modified. *)

val copy : t -> t
(** Snapshot of the store's current contents — the raw platter state at
    this instant — in O(extents): every extent is shared copy-on-write
    with the original, so later writes to either side are not seen by
    the other. The crash-recovery harness captures one mid-run
    ({!Lfs.Fs.crash_image}) and remounts it to exercise roll-forward
    from a torn log. *)

val is_written : t -> int -> bool
(** Whether the block has ever been written (distinguishes an explicit
    zero write from untouched medium; WORM enforcement sits on this). *)

val written_blocks : t -> int
val erase : t -> unit

val erase_block : t -> int -> unit
(** Forgets one block: it reads back as zeros and is no longer
    {!is_written}. Its extent is freed once no block in it is written.
    (Used when a tertiary volume is reclaimed.) *)
