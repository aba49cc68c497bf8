(* The pipelined service/I-O layer: concurrent demand fetches,
   prefetches and write-outs interleaving through the worker pool, the
   starved-fetch path (no cache line obtainable until someone frees a
   segment), and cache eviction with every line pinned or Staging. *)

open Highlight
open Lfs

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let make_world ?(nsegs = 64) ?(cache_segs = 12) ?(io_mode = State.Pipelined) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4
      ~vol_capacity:(8 * prm.Param.seg_blocks) ~media:Device.Jukebox.hp6300_platter
      ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:prm.Param.seg_blocks ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs ~io_mode () in
  (hl, fp)

let seg_bytes = 16 * 4096

(* Two readers demand-fetching from different volumes (with sequential
   prefetch trailing each fetch) while a migrator stages a third file
   out — >= 4 requests outstanding at once, in both I/O modes. Every
   byte read back must be identical to what was written. *)
let run_interleaving io_mode () =
  in_sim (fun engine ->
      let hl, _fp = make_world ~io_mode engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      Hl.set_prefetch_sequential hl ~depth:2;
      let a = bytes_pattern (4 * seg_bytes) 3 in
      let b = bytes_pattern (4 * seg_bytes) 5 in
      let c = bytes_pattern (3 * seg_bytes) 11 in
      Hl.write_file hl "/a" a;
      Hl.write_file hl "/b" b;
      Fs.checkpoint fsys;
      (* separate volumes so the two fetch streams are independent *)
      st.State.restrict_volume <- Some 0;
      ignore (Migrator.migrate_paths st [ "/a" ]);
      st.State.restrict_volume <- Some 1;
      ignore (Migrator.migrate_paths st [ "/b" ]);
      st.State.restrict_volume <- None;
      Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      Hl.write_file hl "/c" c;
      let done_cv = Sim.Condvar.create () in
      let remaining = ref 3 in
      let finish () =
        decr remaining;
        Sim.Condvar.broadcast done_cv
      in
      let got_a = ref Bytes.empty and got_b = ref Bytes.empty in
      Sim.Engine.spawn engine ~name:"reader-a" (fun () ->
          got_a := Hl.read_file hl "/a" ();
          finish ());
      Sim.Engine.spawn engine ~name:"reader-b" (fun () ->
          got_b := Hl.read_file hl "/b" ();
          finish ());
      Sim.Engine.spawn engine ~name:"migrator-c" (fun () ->
          ignore (Migrator.migrate_paths st ~checkpoint:false [ "/c" ]);
          finish ());
      while !remaining > 0 do
        Sim.Condvar.wait done_cv
      done;
      check Alcotest.bool "/a identical" true (Bytes.equal !got_a a);
      check Alcotest.bool "/b identical" true (Bytes.equal !got_b b);
      check Alcotest.bool "/c identical" true (Bytes.equal (Hl.read_file hl "/c" ()) c);
      let s = Hl.stats hl in
      check Alcotest.bool "demand fetches happened" true (s.Hl.demand_fetches >= 2);
      check Alcotest.bool "writeouts happened" true (s.Hl.writeouts >= 3);
      (* Serial admits one request at a time: no two phases ever overlap *)
      if io_mode = State.Serial then begin
        check (Alcotest.float 1e-9) "serial io_overlap" 1.0 s.Hl.io_overlap;
        check (Alcotest.float 1e-9) "serial writeout_overlap" 1.0 s.Hl.writeout_overlap
      end;
      check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl))

(* Hoard every clean segment a cache line could use, leaving [spare]
   of them free. *)
let hoard_clean ?(spare = 0) fsys =
  let rec grab acc =
    match Fs.alloc_clean_segment fsys ~for_cache:true with
    | Some seg -> grab (seg :: acc)
    | None -> acc
  in
  let all = grab [] in
  List.iteri (fun i seg -> if i < spare then Fs.release_segment fsys seg) all;
  List.filteri (fun i _ -> i >= spare) all

(* A demand fetch that cannot get a cache line (clean pool exhausted,
   nothing evictable) must park — without polling — and complete as soon
   as Fs.release_segment frees a segment. *)
let run_starved_fetch io_mode () =
  in_sim (fun engine ->
      let hl, _fp = make_world ~nsegs:24 ~cache_segs:8 ~io_mode engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      let m = bytes_pattern (2 * seg_bytes) 9 in
      Hl.write_file hl "/m" m;
      Fs.checkpoint fsys;
      ignore (Migrator.migrate_paths st [ "/m" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/m" ];
      let hoard = hoard_clean fsys in
      check Alcotest.bool "pool exhausted" true (hoard <> []);
      let got = ref None in
      Sim.Engine.spawn engine ~name:"starved-reader" (fun () ->
          got := Some (Hl.read_file hl "/m" ()));
      (* long enough for an unstarved fetch (swap + transfers) to finish *)
      Sim.Engine.delay 60.0;
      check Alcotest.bool "fetch starved while pool empty" true (!got = None);
      (* freeing one segment must wake the whole chain: segments_freed
         hook -> cache_progress -> service retry -> fetch -> reader *)
      Fs.release_segment fsys (List.hd hoard);
      Sim.Engine.delay 60.0;
      (match !got with
      | None -> Alcotest.fail "fetch still starved after release_segment"
      | Some data -> check Alcotest.bool "/m identical" true (Bytes.equal data m));
      List.iter (Fs.release_segment fsys) (List.tl hoard);
      check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl))

(* Serial mode, shutdown while a retried starved fetch is in flight: the
   dispatcher is waiting in its admission window on a fetch it already
   took off the starved queue. The drain must not fail that fetch a
   second time, and the dispatcher must exit cleanly when it wakes. *)
let test_serial_shutdown_mid_retry () =
  let e = Sim.Engine.create () in
  let outcome = ref None in
  Sim.Engine.spawn e ~name:"test-main" (fun () ->
      let hl, _fp = make_world ~nsegs:24 ~cache_segs:8 ~io_mode:State.Serial e in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      let m = bytes_pattern (2 * seg_bytes) 9 in
      Hl.write_file hl "/m" m;
      Fs.checkpoint fsys;
      ignore (Migrator.migrate_paths st [ "/m" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/m" ];
      let hoard = hoard_clean fsys in
      check Alcotest.bool "pool exhausted" true (hoard <> []);
      let reader_done = ref false in
      Sim.Engine.spawn e ~name:"starved-reader" (fun () ->
          (* one block: one fetch, so nothing is submitted after the stop.
             The transfer in flight may still deliver it, so either
             outcome is fine; hanging is not. *)
          (try ignore (Hl.read_file hl "/m" ~len:4096 ()) with State.Io_error _ -> ());
          reader_done := true);
      Sim.Engine.delay 60.0;
      Fs.release_segment fsys (List.hd hoard);
      (* the retry dispatches at once; the transfer takes far longer *)
      Sim.Engine.delay 0.001;
      let in_flight = ref 0 in
      Seg_cache.iter (Hl.cache hl) (fun l ->
          if l.Seg_cache.state = Seg_cache.Fetching && l.Seg_cache.disk_seg >= 0 then
            incr in_flight);
      check Alcotest.int "retried fetch in flight" 1 !in_flight;
      let fetch_failures () =
        Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics hl) "service.fetch_failures")
      in
      let before = fetch_failures () in
      Hl.shutdown_service hl;
      Sim.Engine.delay 60.0;
      List.iter (Fs.release_segment fsys) (List.tl hoard);
      outcome := Some (before, fetch_failures (), !reader_done, Hl.check hl));
  Sim.Engine.run e;
  (match !outcome with
  | None -> Alcotest.fail "test process did not finish"
  | Some (before, after, reader_done, invariants) ->
      check Alcotest.bool "reader finished" true reader_done;
      check Alcotest.int "fetch failed exactly once" (before + 1) after;
      check (Alcotest.list Alcotest.string) "invariants" [] invariants);
  check (Alcotest.list Alcotest.string) "no blocked processes" []
    (Sim.Engine.blocked_process_names e);
  check Alcotest.int "blocked count" 0 (Sim.Engine.blocked_processes e)

(* Pipelined mode, a prefetch and a demand fetch submitted in the same
   instant with one free cache line: the dispatcher serves the demand
   fetch first, and the prefetch, finding no line, is cancelled. *)
let test_demand_before_prefetch () =
  in_sim (fun engine ->
      let hl, _fp = make_world ~nsegs:24 ~cache_segs:8 engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      Hl.write_file hl "/m" (bytes_pattern (2 * seg_bytes) 9);
      Fs.checkpoint fsys;
      ignore (Migrator.migrate_paths st [ "/m" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/m" ];
      let tsegs = ref [] in
      Segusage.iter st.State.tseg (fun tindex u ->
          if u.Segusage.state <> Segusage.Clean && Seg_cache.find st.State.cache tindex = None
          then tsegs := tindex :: !tsegs);
      let t_pre, t_dem =
        match List.rev !tsegs with
        | a :: b :: _ -> (a, b)
        | _ -> Alcotest.fail "need two tertiary segments"
      in
      let hoard = hoard_clean ~spare:1 fsys in
      let submit tindex ~is_prefetch =
        let line =
          Seg_cache.insert st.State.cache ~tindex ~disk_seg:(-1) ~state:Seg_cache.Fetching
            ~now:(Sim.Engine.now engine)
        in
        line.Seg_cache.prefetched <- is_prefetch;
        State.submit st (Fetch { line; enqueued = Sim.Engine.now engine; is_prefetch });
        line
      in
      let pre = submit t_pre ~is_prefetch:true in
      let dem = submit t_dem ~is_prefetch:false in
      Sim.Engine.delay 60.0;
      check Alcotest.bool "demand fetch landed" true
        (dem.Seg_cache.state = Seg_cache.Resident && dem.Seg_cache.failed = None);
      check Alcotest.bool "prefetch left the directory" true
        (Seg_cache.find st.State.cache pre.Seg_cache.tindex = None);
      check Alcotest.int "prefetch.dropped" 1 (Hl.stats hl).Hl.prefetches_dropped;
      List.iter (Fs.release_segment fsys) hoard;
      check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl))

(* Eviction with every line pinned or Staging: nothing is evictable, no
   victim is offered, and the release of the last pin fires on_free. *)
let test_eviction_all_pinned () =
  let c = Seg_cache.create ~max_lines:4 () in
  let l1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Staging ~now:1.0 in
  let l2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:1.0 in
  Seg_cache.pin l2;
  check Alcotest.bool "nothing evictable" true (Seg_cache.choose_victim c = None);
  let freed = ref 0 in
  Seg_cache.set_on_free c (fun () -> incr freed);
  Seg_cache.unpin c l2;
  check Alcotest.int "unpin fired on_free" 1 !freed;
  check Alcotest.bool "pinned line now victim" true (Seg_cache.choose_victim c = Some l2);
  (* a Staging line stays untouchable: it holds the only copy *)
  l2.Seg_cache.state <- Seg_cache.Staging;
  check Alcotest.bool "staging never evictable" true (Seg_cache.choose_victim c = None);
  ignore l1;
  Seg_cache.remove c l2;
  check Alcotest.int "remove fired on_free" 2 !freed

let suite =
  [
    ( "service.pipeline",
      [
        Alcotest.test_case "concurrent interleavings (pipelined)" `Quick
          (run_interleaving State.Pipelined);
        Alcotest.test_case "concurrent interleavings (serial)" `Quick
          (run_interleaving State.Serial);
        Alcotest.test_case "starved fetch wakes on release (pipelined)" `Quick
          (run_starved_fetch State.Pipelined);
        Alcotest.test_case "starved fetch wakes on release (serial)" `Quick
          (run_starved_fetch State.Serial);
        Alcotest.test_case "shutdown mid starved-fetch retry (serial)" `Quick
          test_serial_shutdown_mid_retry;
        Alcotest.test_case "demand fetch before same-instant prefetch (pipelined)" `Quick
          test_demand_before_prefetch;
        Alcotest.test_case "eviction with all lines pinned/staging" `Quick
          test_eviction_all_pinned;
      ] );
  ]
