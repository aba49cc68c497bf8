(* Wait-profile ledgers (Sim.Ledger) and periodic metric snapshots
   (Sim.Snapshot).

   The load-bearing property is the attribution identity: simulated time
   only advances inside Engine.delay/Engine.suspend, and every such
   block point on a request's path charges its ledger — so the
   per-category charges of a request must sum to its end-to-end latency.
   The tests drive real demand fetches and write-outs through the
   jukebox world and assert the identity to 1%, plus the headline
   diagnosis the profile exists for: a cold-volume fetch is robot-swap
   bound. *)

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
let seg_bytes = 16 * 4096

let make_world ?(io_mode = State.Pipelined) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs:64 () in
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
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:12 ~io_mode () in
  (hl, jb)

let class_summary cls =
  List.find_opt (fun cs -> cs.Sim.Ledger.cls = cls) (Sim.Ledger.summary ())

let cat_sum (cs : Sim.Ledger.class_summary) =
  List.fold_left
    (fun acc (c : Sim.Ledger.cat_stat) -> acc +. c.Sim.Ledger.total_s)
    0.0 cs.Sim.Ledger.by_category

let check_identity what (cs : Sim.Ledger.class_summary) =
  let sum = cat_sum cs in
  check Alcotest.bool (what ^ ": e2e > 0") true (cs.Sim.Ledger.e2e_total_s > 0.0);
  check Alcotest.bool
    (Printf.sprintf "%s: charges (%.6f) sum to e2e (%.6f) within 1%%" what sum
       cs.Sim.Ledger.e2e_total_s)
    true
    (Float.abs (sum -. cs.Sim.Ledger.e2e_total_s) <= 0.01 *. cs.Sim.Ledger.e2e_total_s)

(* ---- demand fetch through the jukebox ---- *)

(* A cold 2-segment fetch, both I/O modes: attribution identity, the
   robot-swap-dominant diagnosis, and first-block accounting. *)
let run_fetch_attribution io_mode () =
  Fun.protect ~finally:Sim.Ledger.uninstall @@ fun () ->
  let read_elapsed =
    in_sim (fun engine ->
        let hl, jb = make_world ~io_mode engine in
        let fsys = Hl.fs hl in
        let st = Hl.state hl in
        let data = bytes_pattern (2 * seg_bytes) 3 in
        Hl.write_file hl "/a" data;
        Fs.checkpoint fsys;
        st.State.restrict_volume <- Some 0;
        ignore (Migrator.migrate_paths st ~with_inodes:false [ "/a" ]);
        st.State.restrict_volume <- None;
        Hl.eject_tertiary_copies hl ~paths:[ "/a" ];
        (* the migration writes left volume 0 in a drive: park it so the
           fetch pays the full cold-volume cost *)
        Device.Jukebox.dismount jb;
        Sim.Ledger.install engine;
        let t0 = Sim.Engine.now engine in
        let back = Hl.read_file hl "/a" () in
        let elapsed = Sim.Engine.now engine -. t0 in
        check Alcotest.bool "data identical" true (Bytes.equal back data);
        Hl.shutdown_service hl;
        elapsed)
  in
  (* in-flight cache-disk landings finish on their own sim time after
     the main process exits; only now is every ledger closed *)
  check Alcotest.int "no open requests after drain" 0 (Sim.Ledger.open_requests ());
  let cs =
    match class_summary "demand_fetch" with
    | Some cs -> cs
    | None -> Alcotest.fail "no demand_fetch class in summary"
  in
  (* at least the two data segments; indirect-block segments are
     layout-dependent and fetch too *)
  check Alcotest.bool "both data segments fetched" true (cs.Sim.Ledger.requests >= 2);
  check_identity "demand_fetch" cs;
  (* the reader blocked for part of that e2e; the ledger must cover at
     least what the reader measured (the landing phase extends past it) *)
  check Alcotest.bool "e2e covers the reader's wait" true
    (cs.Sim.Ledger.e2e_total_s >= read_elapsed *. 0.99);
  (* streaming fetches mark time-to-first-block on awaited requests *)
  check Alcotest.bool "first block marked" true
    (cs.Sim.Ledger.first_blocks >= 1
    && cs.Sim.Ledger.first_blocks <= cs.Sim.Ledger.requests);
  check Alcotest.bool "first block within e2e" true
    (cs.Sim.Ledger.first_block_total_s <= cs.Sim.Ledger.e2e_total_s);
  (* 13.4 s of robot swap vs ~0.14 s of 64 KB MO transfer: a cold fetch
     is robot-bound, which is exactly what the profile should say *)
  match cs.Sim.Ledger.by_category with
  | (top : Sim.Ledger.cat_stat) :: _ ->
      check Alcotest.string "robot_swap dominates the cold fetch" "robot_swap"
        (Sim.Ledger.category_name top.Sim.Ledger.cat)
  | [] -> Alcotest.fail "no categories charged"

(* ---- write-out ---- *)

let test_writeout_attribution () =
  Fun.protect ~finally:Sim.Ledger.uninstall @@ fun () ->
  in_sim (fun engine ->
      let hl, _jb = make_world engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      Hl.write_file hl "/w" (bytes_pattern (2 * seg_bytes) 9);
      Fs.checkpoint fsys;
      Sim.Ledger.install engine;
      ignore (Migrator.migrate_paths st [ "/w" ]);
      Hl.shutdown_service hl);
  check Alcotest.int "no open requests after drain" 0 (Sim.Ledger.open_requests ());
  let cs =
    match class_summary "writeout" with
    | Some cs -> cs
    | None -> Alcotest.fail "no writeout class in summary"
  in
  check Alcotest.bool "at least the two data segments staged out" true
    (cs.Sim.Ledger.requests >= 2);
  check_identity "writeout" cs

(* ---- instrumentation primitives ---- *)

let test_resource_wait_category () =
  Fun.protect ~finally:Sim.Ledger.uninstall @@ fun () ->
  let e = Sim.Engine.create () in
  Sim.Ledger.install e;
  let res = Sim.Resource.create e ~wait_category:Sim.Ledger.Queue_wait "res" in
  let l = ref Sim.Ledger.none in
  Sim.Engine.spawn e ~name:"holder" (fun () ->
      Sim.Resource.acquire res;
      Sim.Engine.delay 5.0;
      Sim.Resource.release res);
  Sim.Engine.spawn e ~name:"waiter" (fun () ->
      Sim.Engine.delay 1.0;
      let lg = Sim.Ledger.open_request ~kind:"unit" in
      l := lg;
      Sim.Ledger.with_active lg (fun () ->
          Sim.Resource.acquire res;
          Sim.Resource.release res);
      Sim.Ledger.close lg);
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "resource wait charged as queue_wait" 4.0
    (Sim.Ledger.charged !l Sim.Ledger.Queue_wait);
  check (Alcotest.float 1e-9) "nothing else charged" 4.0 (Sim.Ledger.total !l)

let test_condvar_charge () =
  Fun.protect ~finally:Sim.Ledger.uninstall @@ fun () ->
  let e = Sim.Engine.create () in
  Sim.Ledger.install e;
  let cv = Sim.Condvar.create () in
  let l = ref Sim.Ledger.none in
  Sim.Engine.spawn e ~name:"waiter" (fun () ->
      let lg = Sim.Ledger.open_request ~kind:"unit" in
      l := lg;
      Sim.Ledger.with_active lg (fun () ->
          Sim.Condvar.wait ~charge:Sim.Ledger.Lock_wait cv);
      Sim.Ledger.close lg);
  Sim.Engine.spawn e ~name:"poker" (fun () ->
      Sim.Engine.delay 3.0;
      Sim.Condvar.broadcast cv);
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "condvar wait charged" 3.0
    (Sim.Ledger.charged !l Sim.Ledger.Lock_wait)

let test_redirect () =
  Fun.protect ~finally:Sim.Ledger.uninstall @@ fun () ->
  let e = Sim.Engine.create () in
  Sim.Ledger.install e;
  let l = ref Sim.Ledger.none in
  Sim.Engine.spawn e ~name:"worker" (fun () ->
      let lg = Sim.Ledger.open_request ~kind:"unit" in
      l := lg;
      (* the landing phase re-aims ambient charges, whatever the
         instrumentation point said *)
      Sim.Ledger.with_active ~redirect:Sim.Ledger.Cache_disk_write lg (fun () ->
          Sim.Ledger.charged_active Sim.Ledger.Transfer (fun () -> Sim.Engine.delay 2.0));
      (* direct charges are not redirected, and uninstalled/none ledgers
         would have made all of this a no-op *)
      Sim.Ledger.charge lg Sim.Ledger.Transfer 0.5;
      Sim.Ledger.close lg);
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "redirected to cache_disk_write" 2.0
    (Sim.Ledger.charged !l Sim.Ledger.Cache_disk_write);
  check (Alcotest.float 1e-9) "direct charge kept its category" 0.5
    (Sim.Ledger.charged !l Sim.Ledger.Transfer)

let test_uninstalled_noop () =
  check Alcotest.bool "not enabled" false (Sim.Ledger.enabled ());
  let l = Sim.Ledger.open_request ~kind:"x" in
  check Alcotest.bool "open without registry yields none" false (Sim.Ledger.is_real l);
  Sim.Ledger.charge l Sim.Ledger.Transfer 1.0;
  Sim.Ledger.close l;
  check (Alcotest.float 1e-9) "charge on none is a no-op" 0.0 (Sim.Ledger.total l);
  check Alcotest.int "no classes" 0 (List.length (Sim.Ledger.summary ()))

(* ---- snapshots ---- *)

let test_snapshot_sampling () =
  let e = Sim.Engine.create () in
  let m = Sim.Metrics.create () in
  let s = Sim.Snapshot.start e ~metrics:m ~period:10.0 () in
  Sim.Engine.spawn e ~name:"load" (fun () ->
      Sim.Metrics.incr (Sim.Metrics.counter m "work");
      Sim.Metrics.set (Sim.Metrics.gauge m "depth") 4.0;
      Sim.Engine.delay 35.0;
      Sim.Metrics.incr (Sim.Metrics.counter m "work");
      Sim.Snapshot.stop s);
  Sim.Engine.run e;
  (* periodic samples at 10/20/30 plus the closing capture at stop *)
  check Alcotest.int "sample count" 4 (Sim.Snapshot.length s);
  check Alcotest.int "nothing evicted" 0 (Sim.Snapshot.evicted s);
  (match Sim.Snapshot.samples s with
  | first :: _ as all ->
      let last = List.nth all (List.length all - 1) in
      check (Alcotest.float 1e-9) "first sample at one period" 10.0 first.Sim.Snapshot.ts;
      check (Alcotest.float 1e-9) "closing sample at stop time" 35.0 last.Sim.Snapshot.ts;
      (match List.assoc_opt "work" first.Sim.Snapshot.values with
      | Some (Sim.Snapshot.Counter 1) -> ()
      | _ -> Alcotest.fail "first sample should hold work=1");
      (match List.assoc_opt "work" last.Sim.Snapshot.values with
      | Some (Sim.Snapshot.Counter 2) -> ()
      | _ -> Alcotest.fail "closing sample should hold work=2")
  | [] -> Alcotest.fail "no samples");
  (* the sampler parked in its residual delay must wind down on its own *)
  check
    (Alcotest.list Alcotest.string)
    "no blocked processes" []
    (Sim.Engine.blocked_process_names e);
  (* stop is idempotent: no second closing capture *)
  Sim.Snapshot.stop s;
  check Alcotest.int "stop twice takes one closing sample" 4 (Sim.Snapshot.length s)

let test_snapshot_ring_cap () =
  let e = Sim.Engine.create () in
  let m = Sim.Metrics.create () in
  let s = Sim.Snapshot.create e ~metrics:m ~cap:3 () in
  for i = 1 to 5 do
    Sim.Metrics.incr (Sim.Metrics.counter m "n");
    ignore i;
    Sim.Snapshot.capture s
  done;
  check Alcotest.int "ring keeps cap samples" 3 (Sim.Snapshot.length s);
  check Alcotest.int "older samples evicted" 2 (Sim.Snapshot.evicted s);
  match Sim.Snapshot.samples s with
  | first :: _ -> (
      (* oldest survivor is the 3rd capture *)
      match List.assoc_opt "n" first.Sim.Snapshot.values with
      | Some (Sim.Snapshot.Counter 3) -> ()
      | _ -> Alcotest.fail "eviction should drop the oldest samples")
  | [] -> Alcotest.fail "no samples"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_snapshot_export () =
  let e = Sim.Engine.create () in
  let m = Sim.Metrics.create () in
  let s = Sim.Snapshot.create e ~metrics:m ~period:5.0 () in
  Sim.Metrics.incr (Sim.Metrics.counter m "reqs");
  Sim.Snapshot.capture s;
  (* a gauge and a histogram registered after the first capture: the
     CSV column set is the union, earlier rows hold empty cells *)
  Sim.Metrics.set (Sim.Metrics.gauge m "depth") 2.0;
  List.iter (Sim.Metrics.observe (Sim.Metrics.histogram m "lat")) [ 0.01; 0.04 ];
  Sim.Snapshot.capture s;
  let csv = Sim.Snapshot.to_csv s in
  (match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
      check Alcotest.string "column union, sorted" "ts,depth,depth.max,lat.count,lat.p50,lat.p95,lat.p99,reqs" header;
      check Alcotest.int "one row per sample" 2 (List.length rows);
      let first = List.hd rows in
      check Alcotest.bool "pre-registration cells are empty" true
        (contains first ",,");
      check Alcotest.bool "counter cell present" true (contains first ",1")
  | [] -> Alcotest.fail "empty csv");
  let js = Sim.Snapshot.to_json s in
  List.iter
    (fun needle -> check Alcotest.bool (needle ^ " in json") true (contains js needle))
    [ "highlight-snapshots/v1"; "\"period_s\": 5"; "\"reqs\": 1"; "\"depth\""; "\"p95\"" ]

let suite =
  [
    ( "attrib",
      [
        Alcotest.test_case "cold fetch: identity + robot blame (pipelined)" `Quick
          (run_fetch_attribution State.Pipelined);
        Alcotest.test_case "cold fetch: identity + robot blame (serial)" `Quick
          (run_fetch_attribution State.Serial);
        Alcotest.test_case "writeout identity" `Quick test_writeout_attribution;
        Alcotest.test_case "resource wait category" `Quick test_resource_wait_category;
        Alcotest.test_case "condvar charge" `Quick test_condvar_charge;
        Alcotest.test_case "redirect + direct charges" `Quick test_redirect;
        Alcotest.test_case "uninstalled is a no-op" `Quick test_uninstalled_noop;
      ] );
    ( "snapshot",
      [
        Alcotest.test_case "periodic sampling + closing capture" `Quick
          test_snapshot_sampling;
        Alcotest.test_case "ring cap eviction" `Quick test_snapshot_ring_cap;
        Alcotest.test_case "csv and json export" `Quick test_snapshot_export;
      ] );
  ]
