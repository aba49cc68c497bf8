(* Blocks live in extents of [extent_blocks] contiguous blocks, the
   64 KB MAXPHYS grain the disk model already transfers at
   ([Disk.max_transfer_blocks]). An extent is allocated zero-filled on
   its first write and overwritten in place after that, so a segment
   that lands on the same cache-disk blocks again allocates nothing.
   Its [written] bitmap keeps the per-block "ever written" fact that
   WORM enforcement needs; an unwritten block inside a live extent
   holds zeros, so reads never consult the bitmap. *)
let extent_blocks = 16

type extent = { data : Bytes.t; mutable written : int (* bit i: block i of the extent *) }

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash e = e land max_int
end)

type t = { block_size : int; nblocks : int; extents : extent Tbl.t; mutable nwritten : int }

let create ~block_size ~nblocks =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Blockstore.create";
  { block_size; nblocks; extents = Tbl.create 64; nwritten = 0 }

let block_size t = t.block_size
let nblocks t = t.nblocks

let check_range t blk count =
  if blk < 0 || count <= 0 || blk + count > t.nblocks then
    invalid_arg
      (Printf.sprintf "Blockstore: range [%d,%d) outside device of %d blocks" blk
         (blk + count) t.nblocks)

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The into/from pair is the zero-copy discipline: callers hand a view
   (buffer + offset) and blocks move once, between the extents and that
   view, one blit per extent touched. [read]/[write] are the allocating
   conveniences on top. Both walk the request extent by extent with
   plain loops: a per-call closure would allocate on the hottest device
   path. *)
let read_into t ~blk ~count ~dst ~dst_off =
  check_range t blk count;
  let bs = t.block_size in
  if dst_off < 0 || dst_off + (count * bs) > Bytes.length dst then
    invalid_arg "Blockstore.read_into: view outside buffer";
  let b = ref blk and last = blk + count in
  while !b < last do
    let e = !b / extent_blocks in
    let first = !b - (e * extent_blocks) in
    let n = min (extent_blocks - first) (last - !b) in
    let off = dst_off + ((!b - blk) * bs) in
    (match Tbl.find_opt t.extents e with
    | Some x -> Bytes.blit x.data (first * bs) dst off (n * bs)
    | None -> Bytes.fill dst off (n * bs) '\000');
    b := !b + n
  done

let read t ~blk ~count =
  let out = Bytes.create (count * t.block_size) in
  read_into t ~blk ~count ~dst:out ~dst_off:0;
  out

(* the last extent of a device whose size is not a multiple of
   [extent_blocks] is cut to the device *)
let extent t e =
  match Tbl.find_opt t.extents e with
  | Some x -> x
  | None ->
      let blocks = min extent_blocks (t.nblocks - (e * extent_blocks)) in
      let x = { data = Bytes.make (blocks * t.block_size) '\000'; written = 0 } in
      Tbl.add t.extents e x;
      x

let write_from t ~blk ~src ~src_off ~count =
  check_range t blk count;
  let bs = t.block_size in
  if src_off < 0 || src_off + (count * bs) > Bytes.length src then
    invalid_arg "Blockstore.write_from: view outside buffer";
  let b = ref blk and last = blk + count in
  while !b < last do
    let e = !b / extent_blocks in
    let first = !b - (e * extent_blocks) in
    let n = min (extent_blocks - first) (last - !b) in
    let x = extent t e in
    Bytes.blit src (src_off + ((!b - blk) * bs)) x.data (first * bs) (n * bs);
    let mask = ((1 lsl n) - 1) lsl first in
    t.nwritten <- t.nwritten + popcount (mask land lnot x.written);
    x.written <- x.written lor mask;
    b := !b + n
  done

let write t ~blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockstore.write: length must be a positive multiple of block size";
  write_from t ~blk ~src:data ~src_off:0 ~count:(len / t.block_size)

let copy t =
  let dup = Tbl.create (max 64 (Tbl.length t.extents)) in
  Tbl.iter (fun e x -> Tbl.add dup e { x with data = Bytes.copy x.data }) t.extents;
  { t with extents = dup }

let bit blk = 1 lsl (blk mod extent_blocks)

let is_written t blk =
  blk >= 0
  && blk < t.nblocks
  &&
  match Tbl.find_opt t.extents (blk / extent_blocks) with
  | Some x -> x.written land bit blk <> 0
  | None -> false

let written_blocks t = t.nwritten

let erase t =
  Tbl.reset t.extents;
  t.nwritten <- 0

let erase_block t blk =
  if is_written t blk then begin
    let e = blk / extent_blocks in
    let x = Tbl.find t.extents e in
    x.written <- x.written land lnot (bit blk);
    t.nwritten <- t.nwritten - 1;
    if x.written = 0 then Tbl.remove t.extents e
    else
      Bytes.fill x.data ((blk - (e * extent_blocks)) * t.block_size) t.block_size '\000'
  end
