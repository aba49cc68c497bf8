open Device

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

(* --- Blockstore --- *)

let test_store_zero_fill () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  check Alcotest.bool "reads zeros" true (Util.Bytesx.is_zero (Blockstore.read s ~blk:3 ~count:2))

let test_store_roundtrip () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  let data = Bytes.of_string (String.init 32 (fun i -> Char.chr (i + 65))) in
  Blockstore.write s ~blk:2 data;
  check Alcotest.bytes "roundtrip" data (Blockstore.read s ~blk:2 ~count:2);
  check Alcotest.bool "marked written" true (Blockstore.is_written s 3);
  check Alcotest.bool "others untouched" false (Blockstore.is_written s 4);
  check Alcotest.int "count" 2 (Blockstore.written_blocks s)

let test_store_bounds () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  let boom f = try f (); false with Invalid_argument _ -> true in
  check Alcotest.bool "read past end" true (boom (fun () -> ignore (Blockstore.read s ~blk:7 ~count:2)));
  check Alcotest.bool "negative" true (boom (fun () -> ignore (Blockstore.read s ~blk:(-1) ~count:1)));
  check Alcotest.bool "bad write len" true (boom (fun () -> Blockstore.write s ~blk:0 (Bytes.create 10)))

let test_store_erase_block () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  Blockstore.write s ~blk:1 (Bytes.make 16 'z');
  Blockstore.erase_block s 1;
  check Alcotest.bool "erased" false (Blockstore.is_written s 1);
  check Alcotest.bool "zeros again" true (Util.Bytesx.is_zero (Blockstore.read s ~blk:1 ~count:1))

(* --- Disk timing --- *)

let test_disk_sequential_rate () =
  let elapsed =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        (* 10 x 1MB sequential reads *)
        for i = 0 to 9 do
          ignore (Disk.read d ~blk:(i * 256) ~count:256)
        done;
        Sim.Engine.now e -. t0)
  in
  let rate = (10.0 *. 1024.0 *. 1024.0) /. elapsed /. 1024.0 in
  (* paper Table 5: raw RZ57 read 1417 KB/s; allow a few percent model overhead *)
  check Alcotest.bool
    (Printf.sprintf "sequential read rate ~1417 KB/s (got %.0f)" rate)
    true
    (rate > 1300.0 && rate <= 1417.0)

let test_disk_write_slower_than_read () =
  let time_of op =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        op d;
        Sim.Engine.now e -. t0)
  in
  let read_t = time_of (fun d -> ignore (Disk.read d ~blk:0 ~count:256)) in
  let write_t = time_of (fun d -> Disk.write d ~blk:0 (Bytes.create (256 * 4096))) in
  check Alcotest.bool "write slower" true (write_t > read_t)

let test_disk_random_slower_than_sequential () =
  let seq =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        for i = 0 to 63 do
          ignore (Disk.read d ~blk:i ~count:1)
        done;
        Sim.Engine.now e -. t0)
  in
  let random =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let rng = Util.Rng.create 3 in
        let t0 = Sim.Engine.now e in
        for _ = 0 to 63 do
          ignore (Disk.read d ~blk:(Util.Rng.int rng (Disk.nblocks d)) ~count:1)
        done;
        Sim.Engine.now e -. t0)
  in
  check Alcotest.bool "random >3x slower" true (random > 3.0 *. seq)

let test_disk_data_integrity () =
  in_sim (fun e ->
      let d = Disk.create e Disk.rz58 ~name:"d0" in
      let rng = Util.Rng.create 11 in
      let blobs =
        List.init 20 (fun i ->
            let blk = Util.Rng.int rng (Disk.nblocks d - 4) in
            let data = Bytes.init (4096 * 2) (fun j -> Char.chr ((i + j) land 0xff)) in
            (blk, data))
      in
      (* later writes may overlap earlier ones; replay to compute expectation *)
      List.iter (fun (blk, data) -> Disk.write d ~blk data) blobs;
      let expect = Blockstore.create ~block_size:4096 ~nblocks:(Disk.nblocks d) in
      List.iter (fun (blk, data) -> Blockstore.write expect ~blk data) blobs;
      List.iter
        (fun (blk, _) ->
          check Alcotest.bytes "disk data" (Blockstore.read expect ~blk ~count:2)
            (Disk.read d ~blk ~count:2))
        blobs)

let test_disk_contention_interleaves () =
  (* Two competing streams on one disk must be slower than back-to-back,
     because each steals the arm at the 64 KB chunk grain. *)
  let solo =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        ignore (Disk.read d ~blk:0 ~count:2560);
        ignore (Disk.read d ~blk:100_000 ~count:2560);
        Sim.Engine.now e -. t0)
  in
  let contended =
    let e = Sim.Engine.create () in
    let d = Disk.create e Disk.rz57 ~name:"d0" in
    Sim.Engine.spawn e (fun () -> ignore (Disk.read d ~blk:0 ~count:2560));
    Sim.Engine.spawn e (fun () -> ignore (Disk.read d ~blk:100_000 ~count:2560));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  check Alcotest.bool
    (Printf.sprintf "contention hurts (solo %.2f contended %.2f)" solo contended)
    true
    (contended > 1.5 *. solo)

let test_disk_stats () =
  in_sim (fun e ->
      let d = Disk.create e Disk.rz57 ~name:"d0" in
      ignore (Disk.read d ~blk:0 ~count:4);
      Disk.write d ~blk:8 (Bytes.create 4096);
      check Alcotest.int "reads" 1 (Disk.reads d);
      check Alcotest.int "writes" 1 (Disk.writes d);
      check Alcotest.int "bytes read" (4 * 4096) (Disk.bytes_read d);
      check Alcotest.int "bytes written" 4096 (Disk.bytes_written d);
      Disk.reset_stats d;
      check Alcotest.int "reset" 0 (Disk.reads d))

(* --- Jukebox --- *)

let mk_jb ?(drives = 2) ?(nvolumes = 4) ?(vol_capacity = 2560) e =
  Jukebox.create e ~drives ~nvolumes ~vol_capacity ~media:Jukebox.hp6300_platter
    ~changer:Jukebox.hp6300_changer "jb"

let test_jukebox_swap_cost () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let t0 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      let first = Sim.Engine.now e -. t0 in
      check Alcotest.bool "first access pays a swap" true (first > 13.0);
      let t1 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1);
      let second = Sim.Engine.now e -. t1 in
      check Alcotest.bool "loaded volume is cheap" true (second < 0.5);
      check Alcotest.int "one swap" 1 (Jukebox.swaps jb))

let test_jukebox_two_drives_hold_two_volumes () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:1 ~count:1);
      (* both fit: exactly two swaps *)
      check Alcotest.int "two swaps" 2 (Jukebox.swaps jb))

let test_jukebox_eviction_lru () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1) (* touch 0 so 1 is LRU *);
      ignore (Jukebox.read jb ~vol:2 ~blk:0 ~count:1) (* evicts 1 *);
      let held = Jukebox.loaded jb in
      check Alcotest.bool "vol0 still loaded" true (Array.mem (Some 0) held);
      check Alcotest.bool "vol2 loaded" true (Array.mem (Some 2) held);
      check Alcotest.bool "vol1 ejected" false (Array.mem (Some 1) held))

let test_jukebox_data_roundtrip () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let data = Bytes.init (4096 * 3) (fun i -> Char.chr (i land 0xff)) in
      Jukebox.write jb ~vol:2 ~blk:100 data;
      check Alcotest.bytes "tertiary roundtrip" data (Jukebox.read jb ~vol:2 ~blk:100 ~count:3))

let test_jukebox_mo_rates () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1) (* pay the swap *);
      let meg = Bytes.create (256 * 4096) in
      let t0 = Sim.Engine.now e in
      for i = 0 to 4 do
        Jukebox.write jb ~vol:0 ~blk:(256 + (i * 256)) meg
      done;
      let w_rate = (5.0 *. 1024.0) /. (Sim.Engine.now e -. t0) in
      check Alcotest.bool
        (Printf.sprintf "MO write ~204 KB/s (got %.0f)" w_rate)
        true
        (w_rate > 185.0 && w_rate <= 204.0);
      let t1 = Sim.Engine.now e in
      for i = 0 to 4 do
        ignore (Jukebox.read jb ~vol:0 ~blk:(256 + (i * 256)) ~count:256)
      done;
      let r_rate = (5.0 *. 1024.0) /. (Sim.Engine.now e -. t1) in
      check Alcotest.bool
        (Printf.sprintf "MO read ~451 KB/s (got %.0f)" r_rate)
        true
        (r_rate > 420.0 && r_rate <= 451.0))

let test_jukebox_write_drive_reservation () =
  in_sim (fun e ->
      let jb = mk_jb e in
      Jukebox.reserve_write_drive jb true;
      Jukebox.write jb ~vol:0 ~blk:0 (Bytes.create 4096);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:2 ~blk:0 ~count:1);
      (* reads must not evict the write volume from drive 0 *)
      check Alcotest.(option int) "write volume pinned" (Some 0) (Jukebox.loaded jb).(0))

let test_worm_enforcement () =
  in_sim (fun e ->
      let jb =
        Jukebox.create e ~drives:1 ~nvolumes:2 ~vol_capacity:256 ~media:Jukebox.sony_worm
          ~changer:Jukebox.hp6300_changer "worm"
      in
      Jukebox.write jb ~vol:0 ~blk:5 (Bytes.create 4096);
      check Alcotest.bool "overwrite raises" true
        (try
           Jukebox.write jb ~vol:0 ~blk:5 (Bytes.create 4096);
           false
         with Jukebox.Worm_overwrite { vol = 0; blk = 5 } -> true);
      check Alcotest.bool "erase raises" true
        (try
           Jukebox.erase_volume jb 0;
           false
         with Invalid_argument _ -> true))

let test_tape_seek_proportional () =
  in_sim (fun e ->
      let jb =
        Jukebox.create e ~drives:1 ~nvolumes:1 ~media:Jukebox.metrum_tape
          ~changer:Jukebox.metrum_changer "tape"
      in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      let t0 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:10_000 ~count:1);
      let near = Sim.Engine.now e -. t0 in
      let t1 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:3_000_000 ~count:1);
      let far = Sim.Engine.now e -. t1 in
      check Alcotest.bool "long tape seek costs more" true (far > 2.0 *. near))

(* --- Concat / stripe --- *)

let test_concat_mapping () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      check Alcotest.int "total" 150 (Concat.nblocks c);
      let dev, off = Concat.locate c 99 in
      check Alcotest.string "end of d0" "d0" (Disk.name dev);
      check Alcotest.int "off" 99 off;
      let dev, off = Concat.locate c 100 in
      check Alcotest.string "start of d1" "d1" (Disk.name dev);
      check Alcotest.int "off0" 0 off)

let test_concat_boundary_io () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      let data = Bytes.init (4 * 4096) (fun i -> Char.chr ((i * 7) land 0xff)) in
      Concat.write c ~blk:98 data;
      check Alcotest.bytes "spans boundary" data (Concat.read c ~blk:98 ~count:4);
      (* each disk really got its share *)
      check Alcotest.bool "d0 got blocks" true (Blockstore.is_written (Disk.store d0) 99);
      check Alcotest.bool "d1 got blocks" true (Blockstore.is_written (Disk.store d1) 1))

let test_stripe_mapping () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d1" in
      let s = Concat.stripe ~stripe_blocks:4 [ d0; d1 ] in
      check Alcotest.int "total" 128 (Concat.nblocks s);
      let dev, _ = Concat.locate s 0 in
      check Alcotest.string "first unit on d0" "d0" (Disk.name dev);
      let dev, off = Concat.locate s 4 in
      check Alcotest.string "second unit on d1" "d1" (Disk.name dev);
      check Alcotest.int "at disk start" 0 off;
      let dev, off = Concat.locate s 8 in
      check Alcotest.string "third unit back on d0" "d0" (Disk.name dev);
      check Alcotest.int "after first unit" 4 off)

let test_stripe_io_roundtrip () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d1" in
      let s = Concat.stripe ~stripe_blocks:4 [ d0; d1 ] in
      let data = Bytes.init (12 * 4096) (fun i -> Char.chr ((i * 13) land 0xff)) in
      Concat.write s ~blk:2 data;
      check Alcotest.bytes "striped roundtrip" data (Concat.read s ~blk:2 ~count:12))

(* --- zero-copy views: the *_into / *_from paths must be
   byte-identical to the allocating ones, land exactly inside the
   caller's view, and leave the guard bytes around it untouched --- *)

let test_concat_view_identity () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      let bs = 4096 in
      let count = 6 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 11) land 0xff)) in
      (* blk 96..101 spans the d0/d1 boundary at 100 *)
      let src = Bytes.make ((count + 4) * bs) '\xaa' in
      Bytes.blit data 0 src (2 * bs) (count * bs);
      Concat.write_from c ~blk:96 ~src ~src_off:(2 * bs) ~count;
      check Alcotest.bytes "plain read sees view write" data (Concat.read c ~blk:96 ~count);
      let dst = Bytes.make ((count + 3) * bs) '\x55' in
      Concat.read_into c ~blk:96 ~count ~dst ~dst_off:bs;
      check Alcotest.bytes "read_into view identical" data (Bytes.sub dst bs (count * bs));
      check Alcotest.char "guard before view intact" '\x55' (Bytes.get dst (bs - 1));
      check Alcotest.char "guard after view intact" '\x55' (Bytes.get dst ((count + 1) * bs)))

let test_jukebox_read_into_identity () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let bs = 4096 in
      let count = 8 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 7) land 0xff)) in
      Jukebox.write jb ~vol:1 ~blk:40 data;
      let dst = Bytes.make ((count + 2) * bs) '\x33' in
      Jukebox.read_into jb ~vol:1 ~blk:40 ~count ~dst ~dst_off:bs;
      check Alcotest.bytes "read_into identical to read" (Jukebox.read jb ~vol:1 ~blk:40 ~count)
        (Bytes.sub dst bs (count * bs));
      check Alcotest.char "guard intact" '\x33' (Bytes.get dst 0))

let test_jukebox_stream_into_identity () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let bs = 4096 in
      let count = 40 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 5 + 1) land 0xff)) in
      Jukebox.write jb ~vol:0 ~blk:8 data;
      let dst = Bytes.make ((count + 2) * bs) '\x00' in
      let covered = ref 0 in
      let monotone = ref true in
      Jukebox.read_stream_into jb ~vol:0 ~blk:8 ~count ~chunk:16 ~dst ~dst_off:bs
        (fun ~off ~blocks ->
          if off <> !covered then monotone := false;
          covered := !covered + blocks);
      check Alcotest.bool "chunks delivered in order" true !monotone;
      check Alcotest.int "chunks cover request" count !covered;
      check Alcotest.bytes "streamed bytes identical" data (Bytes.sub dst bs (count * bs)))

(* A stream's chunk sets its delivery, await and fault grain, never its
   bus grain: a one-chunk segment transfer must share the SCSI bus with
   a disk at the 64 KB slice grain, exactly as a 16-block stream does,
   instead of holding it for the whole segment. *)
let test_jukebox_stream_bus_grain () =
  let count = 64 in
  let finish_times ~write chunk =
    let e = Sim.Engine.create () in
    let jb_done = ref nan and disk_done = ref nan in
    Sim.Engine.spawn e (fun () ->
        let bus = Scsi_bus.create e "scsi0" in
        let disk = Disk.create e ~bus Disk.rz57 ~name:"d" in
        let jb =
          Jukebox.create e ~bus ~drives:1 ~nvolumes:1 ~vol_capacity:2560
            ~media:Jukebox.hp6300_platter ~changer:Jukebox.hp6300_changer "jb"
        in
        (* load the volume first: the swap hogs the bus *)
        ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
        let buf = Bytes.make (count * 4096) 'w' in
        Sim.Engine.spawn e (fun () ->
            if write then
              Jukebox.write_stream_from jb ~vol:0 ~blk:16 ~src:buf ~src_off:0 ~count ~chunk
                (fun ~off:_ ~blocks:_ -> ())
            else
              Jukebox.read_stream_into jb ~vol:0 ~blk:16 ~count ~chunk ~dst:buf ~dst_off:0
                (fun ~off:_ ~blocks:_ -> ());
            jb_done := Sim.Engine.now e);
        Sim.Engine.spawn e (fun () ->
            ignore (Disk.read disk ~blk:0 ~count);
            disk_done := Sim.Engine.now e));
    Sim.Engine.run e;
    (!jb_done, !disk_done)
  in
  let times = Alcotest.(pair (float 1e-9) (float 1e-9)) in
  check times "stream write: one chunk shares the bus like 16-block chunks"
    (finish_times ~write:true 16) (finish_times ~write:true count);
  check times "stream read: one chunk shares the bus like 16-block chunks"
    (finish_times ~write:false 16) (finish_times ~write:false count)

let prop_concat_roundtrip =
  QCheck.Test.make ~name:"concat preserves data at any offset" ~count:60
    QCheck.(pair (int_range 0 140) (int_range 1 8))
    (fun (blk, count) ->
      QCheck.assume (blk + count <= 150);
      in_sim (fun e ->
          let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
          let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
          let c = Concat.concat [ d0; d1 ] in
          let data = Bytes.init (count * 4096) (fun i -> Char.chr ((blk + i) land 0xff)) in
          Concat.write c ~blk data;
          Concat.read c ~blk ~count = data))

let prop_stripe_locate_bijective =
  QCheck.Test.make ~name:"stripe mapping is a bijection" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 2 4))
    (fun (unit_blocks, ndisks) ->
      in_sim (fun e ->
          let disks =
            List.init ndisks (fun i ->
                Disk.create e ~nblocks:64 Disk.rz57 ~name:(Printf.sprintf "d%d" i))
          in
          let s = Concat.stripe ~stripe_blocks:unit_blocks disks in
          let seen = Hashtbl.create 97 in
          let ok = ref true in
          for blk = 0 to Concat.nblocks s - 1 do
            let d, off = Concat.locate s blk in
            let key = (Disk.name d, off) in
            if Hashtbl.mem seen key then ok := false;
            Hashtbl.replace seen key ()
          done;
          !ok && Hashtbl.length seen = Concat.nblocks s))

let prop_seek_monotone =
  QCheck.Test.make ~name:"longer seeks never cost less" ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (d1, d2) ->
      let near = min d1 d2 and far = max d1 d2 in
      let time_of dist =
        in_sim (fun e ->
            let d = Disk.create e Disk.rz57 ~name:"d" in
            ignore (Disk.read d ~blk:0 ~count:1) (* park the arm *);
            let t0 = Sim.Engine.now e in
            ignore (Disk.read d ~blk:dist ~count:1);
            Sim.Engine.now e -. t0)
      in
      time_of far >= time_of near -. 1e-9)

let prop_jukebox_roundtrip =
  QCheck.Test.make ~name:"jukebox preserves data across volumes" ~count:30
    QCheck.(triple (int_range 0 3) (int_range 0 2500) (int_range 1 8))
    (fun (vol, blk, count) ->
      QCheck.assume (blk + count <= 2560);
      in_sim (fun e ->
          let jb =
            Jukebox.create e ~drives:2 ~nvolumes:4 ~vol_capacity:2560
              ~media:Jukebox.hp6300_platter ~changer:Jukebox.hp6300_changer "jb"
          in
          let data = Bytes.init (count * 4096) (fun i -> Char.chr ((vol + blk + i) land 0xff)) in
          Jukebox.write jb ~vol ~blk data;
          Bytes.equal data (Jukebox.read jb ~vol ~blk ~count)))

(* Blockstore against a per-block reference model: random write_from /
   read_into / erase_block / erase / copy sequences on devices smaller
   than one 16-block extent, of a size that is not a multiple of 16,
   and of whole extents, with ranges biased to straddle extent
   boundaries. Every copy taken along the way must keep matching the
   model as it stood when it was taken. *)
type store_op =
  | S_write of int * int * int  (** blk, count, fill seed *)
  | S_read of int * int
  | S_erase_block of int
  | S_erase
  | S_copy

let pp_store_op = function
  | S_write (b, c, x) -> Printf.sprintf "write %d+%d #%d" b c x
  | S_read (b, c) -> Printf.sprintf "read %d+%d" b c
  | S_erase_block b -> Printf.sprintf "erase_block %d" b
  | S_erase -> "erase"
  | S_copy -> "copy"

let gen_store_case =
  QCheck.Gen.(
    oneofl [ 1; 5; 15; 16; 17; 37; 48 ] >>= fun nblocks ->
    let start =
      frequency
        [
          (1, int_bound (nblocks - 1));
          (* within three blocks of an extent boundary *)
          ( 2,
            map2
              (fun k d -> max 0 (min (nblocks - 1) ((16 * k) + d)))
              (int_bound (nblocks / 16)) (int_range (-3) 3) );
        ]
    in
    let range =
      start >>= fun blk ->
      int_range 1 (min 36 (nblocks - blk)) >|= fun count -> (blk, count)
    in
    let op =
      frequency
        [
          (5, map2 (fun (b, c) x -> S_write (b, c, x)) range (int_bound 250));
          (4, map (fun (b, c) -> S_read (b, c)) range);
          (3, map (fun b -> S_erase_block b) (int_range (-1) nblocks));
          (1, return S_erase);
          (1, return S_copy);
        ]
    in
    list_size (int_range 1 40) op >|= fun ops -> (nblocks, ops))

let prop_blockstore_model =
  QCheck.Test.make ~name:"blockstore extents match a per-block model" ~count:300
    (QCheck.make gen_store_case ~print:(fun (n, ops) ->
         Printf.sprintf "%d blocks: %s" n (String.concat "; " (List.map pp_store_op ops))))
    (fun (nblocks, ops) ->
      let bs = 8 in
      let s = Blockstore.create ~block_size:bs ~nblocks in
      let model = Array.make nblocks None in
      let copies = ref [] in
      let agrees s model =
        let whole = Bytes.make ((nblocks * bs) + 6) '#' in
        Blockstore.read_into s ~blk:0 ~count:nblocks ~dst:whole ~dst_off:3;
        Bytes.sub_string whole 0 3 = "###"
        && Bytes.sub_string whole ((nblocks * bs) + 3) 3 = "###"
        && Blockstore.written_blocks s
           = Array.fold_left (fun n b -> if b = None then n else n + 1) 0 model
        && (not (Blockstore.is_written s (-1)))
        && (not (Blockstore.is_written s nblocks))
        && Array.for_all Fun.id
             (Array.mapi
                (fun i b ->
                  Blockstore.is_written s i = (b <> None)
                  && Bytes.sub whole (3 + (i * bs)) bs
                     = Option.value b ~default:(Bytes.make bs '\000'))
                model)
      in
      let step = function
        | S_write (blk, count, x) ->
            (* a view in the middle of a larger buffer *)
            let src = Bytes.init ((count + 2) * bs) (fun i -> Char.chr ((x + (i * 7)) land 0xff)) in
            Blockstore.write_from s ~blk ~src ~src_off:bs ~count;
            for i = 0 to count - 1 do
              model.(blk + i) <- Some (Bytes.sub src ((i + 1) * bs) bs)
            done;
            true
        | S_read (blk, count) ->
            let dst = Blockstore.read s ~blk ~count in
            let ok = ref true in
            for i = 0 to count - 1 do
              let want = Option.value model.(blk + i) ~default:(Bytes.make bs '\000') in
              if Bytes.sub dst (i * bs) bs <> want then ok := false
            done;
            !ok
        | S_erase_block blk ->
            Blockstore.erase_block s blk;
            if blk >= 0 && blk < nblocks then model.(blk) <- None;
            true
        | S_erase ->
            Blockstore.erase s;
            Array.fill model 0 nblocks None;
            true
        | S_copy ->
            copies := (Blockstore.copy s, Array.copy model) :: !copies;
            true
      in
      List.for_all (fun op -> step op && agrees s model) ops
      && List.for_all (fun (c, m) -> agrees c m) !copies)

(* Copy-on-write sharing between stores against a per-block model:
   three stores of mixed sizes (cut last extents included), random
   writes, shares, block erasures, snapshots and reads, with offsets
   and lengths biased to straddle or exactly cover 16-block extents so
   both whole-extent sharing and ragged blits happen. Every store must
   match its model after every step — a write into a shared extent that
   leaks into another store shows up at once. Operation arguments are
   raw; each is resolved against the stores' sizes when it runs, since
   a snapshot can change a slot's size. *)
type share_op =
  | H_write of int * int * int * int  (** store, blk, count, pattern seed *)
  | H_share of int * int * int * int * int  (** src, dst, src blk, dst blk, count *)
  | H_erase_block of int * int
  | H_copy of int * int  (** slot [dst] becomes a snapshot of store [src] *)
  | H_read of int * int * int

let pp_share_op = function
  | H_write (i, b, c, x) -> Printf.sprintf "write s%d %d+%d #%d" i b c x
  | H_share (i, j, b, d, c) -> Printf.sprintf "share s%d@%d -> s%d@%d +%d" i b j d c
  | H_erase_block (i, b) -> Printf.sprintf "erase_block s%d %d" i b
  | H_copy (i, j) -> Printf.sprintf "copy s%d -> s%d" i j
  | H_read (i, b, c) -> Printf.sprintf "read s%d %d+%d" i b c

let gen_share_case =
  QCheck.Gen.(
    let size = oneofl [ 1; 15; 16; 17; 37 ] in
    let store = int_bound 2 in
    let blk =
      frequency
        [
          (1, int_bound 36);
          (* on, or within three blocks of, an extent edge *)
          (2, map (fun k -> 16 * k) (int_bound 2));
          (2, map2 (fun k d -> max 0 ((16 * k) + d)) (int_bound 2) (int_range (-3) 3));
        ]
    in
    let count = frequency [ (2, int_range 1 40); (2, oneofl [ 16; 32 ]); (1, int_range 14 18) ] in
    let two_stores = store >>= fun i -> int_bound 1 >|= fun k -> (i, (i + 1 + k) mod 3) in
    let op =
      frequency
        [
          (4, map3 (fun (i, b) c x -> H_write (i, b, c, x)) (pair store blk) count (int_bound 250));
          ( 5,
            map3
              (fun (i, j) (b, d) c -> H_share (i, j, b, d, c))
              two_stores (pair blk blk) count );
          (2, map2 (fun i b -> H_erase_block (i, b)) store blk);
          (1, map (fun (i, j) -> H_copy (i, j)) two_stores);
          (2, map3 (fun i b c -> H_read (i, b, c)) store blk count);
        ]
    in
    triple size size size >>= fun (a, b, c) ->
    list_size (int_range 1 30) op >|= fun ops -> ([| a; b; c |], ops))

let prop_share_model =
  QCheck.Test.make ~name:"share and copy-on-write match a per-block model" ~count:400
    (QCheck.make gen_share_case ~print:(fun (sizes, ops) ->
         Printf.sprintf "sizes %s: %s"
           (String.concat "," (Array.to_list (Array.map string_of_int sizes)))
           (String.concat "; " (List.map pp_share_op ops))))
    (fun (sizes, ops) ->
      let bs = 8 in
      let zero = Bytes.make bs '\000' in
      let stores = Array.map (fun n -> Blockstore.create ~block_size:bs ~nblocks:n) sizes in
      let models = Array.map (fun n -> Array.make n None) sizes in
      let agrees s model =
        let n = Array.length model in
        let whole = Blockstore.read s ~blk:0 ~count:n in
        let folded =
          Blockstore.fold_bytes s ~blk:0 ~count:n ~init:[] (fun acc b off len ->
              Bytes.sub b off len :: acc)
        in
        Bytes.equal (Bytes.concat Bytes.empty (List.rev folded)) whole
        && Blockstore.written_blocks s
        = Array.fold_left (fun k b -> if b = None then k else k + 1) 0 model
        && Array.for_all Fun.id
             (Array.mapi
                (fun i b ->
                  Blockstore.is_written s i = (b <> None)
                  && Bytes.sub whole (i * bs) bs = Option.value b ~default:zero)
                model)
      in
      (* a block number inside a store of [n] blocks, and a length that
         fits from there *)
      let at n b = b mod n and len room c = 1 + ((c - 1) mod room) in
      let step = function
        | H_write (i, b, c, x) ->
            let n = Array.length models.(i) in
            let blk = at n b in
            let count = len (n - blk) c in
            let src = Bytes.init (count * bs) (fun k -> Char.chr ((x + (k * 7)) land 0xff)) in
            Blockstore.write_from stores.(i) ~blk ~src ~src_off:0 ~count;
            for k = 0 to count - 1 do
              models.(i).(blk + k) <- Some (Bytes.sub src (k * bs) bs)
            done
        | H_share (i, j, b, d, c) ->
            let src_blk = at (Array.length models.(i)) b
            and dst_blk = at (Array.length models.(j)) d in
            let count =
              len (min (Array.length models.(i) - src_blk) (Array.length models.(j) - dst_blk)) c
            in
            Blockstore.share ~src:stores.(i) ~src_blk ~dst:stores.(j) ~dst_blk ~count;
            for k = 0 to count - 1 do
              models.(j).(dst_blk + k) <-
                Some (Option.value models.(i).(src_blk + k) ~default:zero)
            done
        | H_erase_block (i, b) ->
            let blk = at (Array.length models.(i)) b in
            Blockstore.erase_block stores.(i) blk;
            models.(i).(blk) <- None
        | H_copy (i, j) ->
            stores.(j) <- Blockstore.copy stores.(i);
            models.(j) <- Array.copy models.(i)
        | H_read (i, b, c) ->
            let n = Array.length models.(i) in
            let blk = at n b in
            let count = len (n - blk) c in
            let got = Blockstore.read stores.(i) ~blk ~count in
            for k = 0 to count - 1 do
              if Bytes.sub got (k * bs) bs <> Option.value models.(i).(blk + k) ~default:zero then
                QCheck.Test.fail_reportf "read s%d block %d differs from the model" i (blk + k)
            done
      in
      List.for_all
        (fun op ->
          step op;
          Array.for_all2 agrees stores models)
        ops)

let props =
  [ prop_concat_roundtrip; prop_stripe_locate_bijective; prop_seek_monotone;
    prop_jukebox_roundtrip; prop_blockstore_model; prop_share_model ]

let suite =
  [
    ( "device.blockstore",
      [
        Alcotest.test_case "zero fill" `Quick test_store_zero_fill;
        Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "bounds" `Quick test_store_bounds;
        Alcotest.test_case "erase block" `Quick test_store_erase_block;
      ] );
    ( "device.disk",
      [
        Alcotest.test_case "sequential rate matches Table 5" `Quick test_disk_sequential_rate;
        Alcotest.test_case "write slower than read" `Quick test_disk_write_slower_than_read;
        Alcotest.test_case "random slower than sequential" `Quick
          test_disk_random_slower_than_sequential;
        Alcotest.test_case "data integrity" `Quick test_disk_data_integrity;
        Alcotest.test_case "arm contention interleaves" `Quick test_disk_contention_interleaves;
        Alcotest.test_case "stats" `Quick test_disk_stats;
      ] );
    ( "device.jukebox",
      [
        Alcotest.test_case "swap cost" `Quick test_jukebox_swap_cost;
        Alcotest.test_case "two drives hold two volumes" `Quick
          test_jukebox_two_drives_hold_two_volumes;
        Alcotest.test_case "LRU eviction" `Quick test_jukebox_eviction_lru;
        Alcotest.test_case "data roundtrip" `Quick test_jukebox_data_roundtrip;
        Alcotest.test_case "MO rates match Table 5" `Quick test_jukebox_mo_rates;
        Alcotest.test_case "write drive reservation" `Quick test_jukebox_write_drive_reservation;
        Alcotest.test_case "WORM enforcement" `Quick test_worm_enforcement;
        Alcotest.test_case "tape seek proportional" `Quick test_tape_seek_proportional;
        Alcotest.test_case "read_into view identity" `Quick test_jukebox_read_into_identity;
        Alcotest.test_case "read_stream_into view identity" `Quick
          test_jukebox_stream_into_identity;
        Alcotest.test_case "stream chunk keeps the 64 KB bus grain" `Quick
          test_jukebox_stream_bus_grain;
      ] );
    ( "device.concat",
      [
        Alcotest.test_case "concat mapping" `Quick test_concat_mapping;
        Alcotest.test_case "boundary io" `Quick test_concat_boundary_io;
        Alcotest.test_case "stripe mapping" `Quick test_stripe_mapping;
        Alcotest.test_case "stripe roundtrip" `Quick test_stripe_io_roundtrip;
        Alcotest.test_case "zero-copy view identity" `Quick test_concat_view_identity;
      ] );
    ("device.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
