type t = {
  nblocks : int;
  block_size : int;
  read : blk:int -> count:int -> Bytes.t;
  write : blk:int -> data:Bytes.t -> unit;
  read_view : blk:int -> count:int -> Device.Blockstore.view -> unit;
  write_view : blk:int -> count:int -> Device.Blockstore.view -> unit;
}

let of_disk d =
  {
    nblocks = Device.Disk.nblocks d;
    block_size = Device.Disk.block_size d;
    read = (fun ~blk ~count -> Device.Disk.read d ~blk ~count);
    write = (fun ~blk ~data -> Device.Disk.write d ~blk data);
    read_view = Device.Disk.read_view d;
    write_view = Device.Disk.write_view d;
  }

let of_concat c =
  {
    nblocks = Device.Concat.nblocks c;
    block_size = Device.Concat.block_size c;
    read = (fun ~blk ~count -> Device.Concat.read c ~blk ~count);
    write = (fun ~blk ~data -> Device.Concat.write c ~blk data);
    read_view = Device.Concat.read_view c;
    write_view = Device.Concat.write_view c;
  }

let of_store s =
  {
    nblocks = Device.Blockstore.nblocks s;
    block_size = Device.Blockstore.block_size s;
    read = (fun ~blk ~count -> Device.Blockstore.read s ~blk ~count);
    write = (fun ~blk ~data -> Device.Blockstore.write s ~blk data);
    read_view = Device.Blockstore.read_view s;
    write_view = Device.Blockstore.write_view s;
  }
