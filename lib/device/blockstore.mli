(** Sparse backing store for simulated media. Devices carry real bytes so
    file-system correctness is checked end to end, but space is
    allocated only where blocks have been written. Unwritten blocks read
    back as zeros, like a freshly formatted medium.

    The store is sparse at the grain of an {e extent}: 16 contiguous
    blocks (64 KB at 4 KB blocks, the disk model's MAXPHYS transfer
    grain). An extent is allocated zero-filled on the first write to
    any of its blocks and is overwritten in place from then on, so
    steady-state traffic — segments landing again on the same cache-disk
    blocks — allocates nothing. The price is the grain: a sparse 9 TB
    jukebox still costs nothing until used, but each extent it touches
    costs a full 64 KB even if only one block of it is written, and a
    live extent is freed only when {!erase_block} has forgotten every
    block in it (or {!erase} clears the store). *)

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
    extent written for the first time. *)

val copy : t -> t
(** Deep snapshot of the store's current contents — the raw platter
    state at this instant. The crash-recovery harness captures one
    mid-run ({!Lfs.Fs.crash_image}) and remounts it to exercise
    roll-forward from a torn log. *)

val is_written : t -> int -> bool
(** Whether the block has ever been written (distinguishes an explicit
    zero write from untouched medium; WORM enforcement sits on this). *)

val written_blocks : t -> int
val erase : t -> unit

val erase_block : t -> int -> unit
(** Forgets one block: it reads back as zeros and is no longer
    {!is_written}. Its extent is freed once no block in it is written.
    (Used when a tertiary volume is reclaimed.) *)
