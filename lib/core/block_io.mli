(** The block-map pseudo-device driver (paper §6.6): presents the whole
    unified address space as one device to the LFS core. Disk addresses
    pass straight to the concatenated disk driver; tertiary addresses
    are looked up in the segment cache, triggering a demand fetch
    through the service process on a miss — the reading process sleeps
    until the service completes the fill, exactly as the paper's kernel
    blocks the original I/O. *)

val dev : State.t -> Lfs.Dev.t

val raw_write_cache_line : State.t -> disk_seg:int -> Device.Blockstore.t -> unit
(** Whole-segment raw write of a cache line from a segment image, by
    reference (the I/O server's direct disk access, bypassing the
    buffer cache). *)

val read_block_to : State.t -> int -> dst:Device.Blockstore.t -> dst_blk:int -> unit
(** Reads one block wherever it lives into block [dst_blk] of [dst]:
    disk directly, tertiary via the cache when resident or straight
    from the jukebox otherwise (the migrator gathers a staging
    segment's payload with it, straight into the segment image). *)
