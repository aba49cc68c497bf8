(* Blocks live in extents of [extent_blocks] contiguous blocks, the
   64 KB MAXPHYS grain the disk model already transfers at
   ([Disk.max_transfer_blocks]). An extent's bytes may be shared by
   several stores ([share], [copy]); [shared] marks bytes that another
   store may also reference, and the first write into them gives the
   writer its own copy (copy-on-write). Bytes nobody else references
   are overwritten in place. Its [written] bitmap keeps the per-block
   "ever written" fact that WORM enforcement needs; an unwritten block
   inside a live extent holds zeros, so reads never consult the
   bitmap. *)
let extent_blocks = 16

type extent = {
  mutable data : Bytes.t;
  mutable written : int; (* bit i: block i of the extent *)
  mutable shared : bool;
}

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

(* blocks [first, first + n) of an extent *)
let mask first n = ((1 lsl n) - 1) lsl first

let mark_written t x m =
  t.nwritten <- t.nwritten + popcount (m land lnot x.written);
  x.written <- x.written lor m

(* the last extent of a device whose size is not a multiple of
   [extent_blocks] is cut to the device *)
let extent_len t e = min extent_blocks (t.nblocks - (e * extent_blocks))

(* Gives [x] bytes no other store can see before a write into it: a
   shared extent is copied first, or only replaced by a fresh buffer
   when the write covers all of it ([whole]). *)
let unshare x ~whole =
  if x.shared then begin
    x.data <- (if whole then Bytes.create (Bytes.length x.data) else Bytes.copy x.data);
    x.shared <- false
  end

(* The extent [e], ready to take a write of [n] of its blocks. *)
let writable t e n =
  let whole = n = extent_len t e in
  match Tbl.find_opt t.extents e with
  | Some x ->
      unshare x ~whole;
      x
  | None ->
      let len = extent_len t e * t.block_size in
      let data = if whole then Bytes.create len else Bytes.make len '\000' in
      let x = { data; written = 0; shared = false } in
      Tbl.add t.extents e x;
      x

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
    let x = writable t e n in
    Bytes.blit src (src_off + ((!b - blk) * bs)) x.data (first * bs) (n * bs);
    mark_written t x (mask first n);
    b := !b + n
  done

let write t ~blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockstore.write: length must be a positive multiple of block size";
  write_from t ~blk ~src:data ~src_off:0 ~count:(len / t.block_size)

(* One read-only extent of zeros per block size: a never-written
   source extent shares it, and copy-on-write keeps it zero. *)
let zero_extents : (int, Bytes.t) Hashtbl.t = Hashtbl.create 1

let zero_extent bs =
  match Hashtbl.find_opt zero_extents bs with
  | Some z -> z
  | None ->
      let z = Bytes.make (extent_blocks * bs) '\000' in
      Hashtbl.add zero_extents bs z;
      z

(* Walks both ranges at once, cutting at the extent edges of either
   store: a piece that is a whole extent on both sides (only possible
   when the two ranges sit at the same offset within their extents)
   moves by reference; anything else is blitted. *)
let share ~src ~src_blk ~dst ~dst_blk ~count =
  check_range src src_blk count;
  check_range dst dst_blk count;
  let bs = src.block_size in
  if dst.block_size <> bs then invalid_arg "Blockstore.share: block sizes differ";
  if src == dst && src_blk < dst_blk + count && dst_blk < src_blk + count then
    invalid_arg "Blockstore.share: overlapping ranges in one store";
  let i = ref 0 in
  while !i < count do
    let sb = src_blk + !i and db = dst_blk + !i in
    let se = sb / extent_blocks and de = db / extent_blocks in
    let sfirst = sb - (se * extent_blocks) and dfirst = db - (de * extent_blocks) in
    let n = min (min (extent_blocks - sfirst) (extent_blocks - dfirst)) (count - !i) in
    let from = Tbl.find_opt src.extents se in
    (if n = extent_blocks then begin
       let data =
         match from with
         | Some x ->
             x.shared <- true;
             x.data
         | None -> zero_extent bs
       in
       match Tbl.find_opt dst.extents de with
       | Some y ->
           y.data <- data;
           y.shared <- true;
           mark_written dst y (mask 0 n)
       | None ->
           Tbl.add dst.extents de { data; written = mask 0 n; shared = true };
           dst.nwritten <- dst.nwritten + n
     end
     else
       let y = writable dst de n in
       (match from with
       | Some x -> Bytes.blit x.data (sfirst * bs) y.data (dfirst * bs) (n * bs)
       | None -> Bytes.fill y.data (dfirst * bs) (n * bs) '\000');
       mark_written dst y (mask dfirst n));
    i := !i + n
  done

type view = Buf of Bytes.t * int | Store of t * int

let check_view ~block_size ~count view what =
  let inside =
    match view with
    | Buf (b, off) -> off >= 0 && off + (count * block_size) <= Bytes.length b
    | Store (s, blk) -> s.block_size = block_size && blk >= 0 && blk + count <= s.nblocks
  in
  if not inside then invalid_arg (what ^ ": view outside buffer")

let shift ~block_size view n =
  match view with
  | Buf (b, off) -> Buf (b, off + (n * block_size))
  | Store (s, blk) -> Store (s, blk + n)

let read_view t ~blk ~count = function
  | Buf (b, off) -> read_into t ~blk ~count ~dst:b ~dst_off:off
  | Store (s, sblk) -> share ~src:t ~src_blk:blk ~dst:s ~dst_blk:sblk ~count

let write_view t ~blk ~count = function
  | Buf (b, off) -> write_from t ~blk ~src:b ~src_off:off ~count
  | Store (s, sblk) -> share ~src:s ~src_blk:sblk ~dst:t ~dst_blk:blk ~count

let fold_bytes t ~blk ~count ~init f =
  check_range t blk count;
  let bs = t.block_size in
  let acc = ref init and b = ref blk and last = blk + count in
  while !b < last do
    let e = !b / extent_blocks in
    let first = !b - (e * extent_blocks) in
    let n = min (extent_blocks - first) (last - !b) in
    (acc :=
       match Tbl.find_opt t.extents e with
       | Some x -> f !acc x.data (first * bs) (n * bs)
       | None -> f !acc (zero_extent bs) 0 (n * bs));
    b := !b + n
  done;
  !acc

let copy t =
  let dup = Tbl.create (max 64 (Tbl.length t.extents)) in
  Tbl.iter
    (fun e x ->
      x.shared <- true;
      Tbl.add dup e { x with shared = true })
    t.extents;
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
    else begin
      unshare x ~whole:false;
      Bytes.fill x.data ((blk - (e * extent_blocks)) * t.block_size) t.block_size '\000'
    end
  end
