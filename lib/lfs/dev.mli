(** The device interface the file system writes through. LFS sees one
    flat block address space; plugging in a plain disk, a concatenated
    disk farm, or HighLight's block-map driver (which routes tertiary
    addresses through the segment cache) requires no file-system
    changes — the layering of the paper's Figure 5. *)

type t = {
  nblocks : int;
  block_size : int;
  read : blk:int -> count:int -> Bytes.t;
  write : blk:int -> data:Bytes.t -> unit;
  read_view : blk:int -> count:int -> Device.Blockstore.view -> unit;
      (** [read] landing directly in a caller's view: a buffer, or a
          store that takes the blocks by reference — the zero-copy path
          segment staging and write-out use. *)
  write_view : blk:int -> count:int -> Device.Blockstore.view -> unit;
      (** [write] of [count] blocks from a view, with no slice
          allocation; a store view lands by reference. *)
}

val of_disk : Device.Disk.t -> t
val of_concat : Device.Concat.t -> t

val of_store : Device.Blockstore.t -> t
(** Zero-latency device for logic-only unit tests. *)
