(* Runtime health plane: burn-rate window math, the SLO file parser,
   multi-window firing + hysteresis dedup (including a QCheck latch
   reference over randomized breach schedules), both watchdogs, the
   deadlock detectors, and the flight-recorder ring + black-box dump. *)

open Sim

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Window math --- *)

let test_window_rotation () =
  let w = Obs.Health.Window.create ~span_s:60.0 ~bucket_s:10.0 in
  check (Alcotest.float 1e-9) "span" 60.0 (Obs.Health.Window.span_s w);
  Obs.Health.Window.add w ~now:5.0 ~good:3.0 ~bad:1.0;
  let g, b = Obs.Health.Window.totals w ~now:5.0 in
  check (Alcotest.float 1e-9) "good visible" 3.0 g;
  check (Alcotest.float 1e-9) "bad visible" 1.0 b;
  (* still inside the window at the last covered instant... *)
  let g, _ = Obs.Health.Window.totals w ~now:59.0 in
  check (Alcotest.float 1e-9) "still inside at 59" 3.0 g;
  (* ...and rotated out once the bucket index falls off the back *)
  let g, b = Obs.Health.Window.totals w ~now:60.0 in
  check (Alcotest.float 1e-9) "good rotated out" 0.0 g;
  check (Alcotest.float 1e-9) "bad rotated out" 0.0 b;
  (* a new epoch landing on the same slot zeroes the stale weight *)
  Obs.Health.Window.add w ~now:65.0 ~good:7.0 ~bad:0.0;
  let g, b = Obs.Health.Window.totals w ~now:65.0 in
  check (Alcotest.float 1e-9) "slot reused clean" 7.0 g;
  check (Alcotest.float 1e-9) "no stale bad" 0.0 b

let test_window_gap () =
  let w = Obs.Health.Window.create ~span_s:100.0 ~bucket_s:10.0 in
  Obs.Health.Window.add w ~now:0.0 ~good:5.0 ~bad:5.0;
  check (Alcotest.float 1e-9) "fraction before gap" 0.5
    (Obs.Health.Window.bad_fraction w ~now:0.0);
  (* an arbitrary idle gap: stale epochs are excluded without ever
     being touched *)
  check (Alcotest.float 1e-9) "empty after gap" 0.0
    (Obs.Health.Window.bad_fraction w ~now:100_000.0);
  let g, b = Obs.Health.Window.totals w ~now:100_000.0 in
  check (Alcotest.float 1e-9) "no good after gap" 0.0 g;
  check (Alcotest.float 1e-9) "no bad after gap" 0.0 b

(* --- SLO parser --- *)

let test_parse_good () =
  let text =
    "# comment line\n\
     lat: demand_fetch.p99 < 40s   # trailing comment\n\
     err: error_rate < 1% burn=2 fast=60 slow=600\n\
     \n\
     qw: demand_fetch.queue_wait_frac < 0.5\n\
     ms: first_block.p95 < 1500ms\n\
     custom: rate:service.retries/service.demand_fetches_submitted < 0.25\n"
  in
  match Obs.Health.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok objs -> (
      check Alcotest.int "five objectives" 5 (List.length objs);
      let find n = List.find (fun o -> o.Obs.Health.o_name = n) objs in
      (match (find "lat").Obs.Health.o_source with
      | Obs.Health.Latency { hist; q } ->
          check Alcotest.string "alias expanded" "service.demand_fetch_latency_s" hist;
          check (Alcotest.float 1e-9) "q" 0.99 q
      | _ -> Alcotest.fail "lat should be Latency");
      check (Alcotest.float 1e-9) "seconds suffix" 40.0 (find "lat").Obs.Health.o_threshold;
      check (Alcotest.float 1e-9) "latency budget = 1-q" 0.01
        (Obs.Health.budget_of (find "lat"));
      let err = find "err" in
      check (Alcotest.float 1e-9) "percent suffix" 0.01 err.Obs.Health.o_threshold;
      check (Alcotest.float 1e-9) "ratio budget = threshold" 0.01 (Obs.Health.budget_of err);
      check (Alcotest.float 1e-9) "burn option" 2.0 err.Obs.Health.o_burn;
      check (Alcotest.float 1e-9) "fast override" 60.0 err.Obs.Health.o_fast_s;
      check (Alcotest.float 1e-9) "slow override" 600.0 err.Obs.Health.o_slow_s;
      (match (find "qw").Obs.Health.o_source with
      | Obs.Health.Frac { num; den } ->
          check Alcotest.string "frac numerator" "ledger.demand_fetch.queue_wait_s" num;
          check Alcotest.string "frac denominator" "ledger.demand_fetch.e2e_s" den
      | _ -> Alcotest.fail "qw should be Frac");
      check (Alcotest.float 1e-9) "ms suffix" 1.5 (find "ms").Obs.Health.o_threshold;
      match (find "custom").Obs.Health.o_source with
      | Obs.Health.Ratio { bad; good } ->
          check (Alcotest.list Alcotest.string) "rate bad" [ "service.retries" ] bad;
          check (Alcotest.list Alcotest.string) "rate good"
            [ "service.demand_fetches_submitted" ] good
      | _ -> Alcotest.fail "custom should be Ratio")

let test_parse_bad () =
  let expect_err text frag =
    match Obs.Health.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e ->
        if not (contains e frag) then
          Alcotest.failf "error %S should mention %S" e frag
  in
  expect_err "just words without structure" "line 1";
  expect_err "x: nosuchmetric < 1" "unknown metric";
  expect_err "x: demand_fetch.p99 < fast" "bad threshold";
  expect_err "x: demand_fetch.p99 < 40s wat=1" "bad option";
  expect_err "x: demand_fetch.p0 < 40s" "outside (0,1)";
  expect_err "x: demand_fetch.robot_dance_frac < 0.5" "unknown ledger category";
  expect_err "ok: error_rate < 1%\nboom: error_rate > 1%" "line 2";
  match Obs.Health.parse "# only comments\n\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "comments should parse to no objectives"
  | Error e -> Alcotest.failf "comments should parse: %s" e

(* --- burn-rate firing over a live (manually ticked) health plane --- *)

let parse1 text =
  match Obs.Health.parse text with
  | Ok [ o ] -> o
  | Ok _ -> Alcotest.fail "expected one objective"
  | Error e -> Alcotest.failf "parse: %s" e

(* Manual clock: install with a tick period far beyond the test horizon
   so [Engine.run_until] only advances time, and every evaluation is an
   explicit [Obs.Health.tick]. *)
let manual_install ?hysteresis ?deadline_s ?horizon_s metrics engine objs =
  Metrics.install engine metrics;
  Obs.Health.install ?hysteresis ?deadline_s ?horizon_s ~tick_s:1e12 ~quiet:true engine objs

let test_fast_only_spike_no_fire () =
  let e = Engine.create () in
  let m = Metrics.create () in
  let h =
    manual_install m e [ parse1 "err: error_rate < 1% fast=300 slow=3600" ]
  in
  let bad = Metrics.counter m "service.io_failures" in
  let good = Metrics.counter m "service.demand_fetches_submitted" in
  (* an hour of clean traffic fills the slow window with good weight *)
  for i = 1 to 120 do
    Engine.run_until e (float_of_int i *. 30.0);
    Metrics.incr ~by:100 good;
    Obs.Health.tick h
  done;
  check Alcotest.int "clean hour: no alerts" 0 (List.length (Obs.Health.alerts h));
  (* one burst: the fast window burns hard, the slow window shrugs *)
  Engine.run_until e 3630.0;
  Metrics.incr ~by:50 bad;
  Metrics.incr ~by:50 good;
  Obs.Health.tick h;
  let burn_fast = Metrics.value (Metrics.gauge m "slo.err.burn_fast") in
  let burn_slow = Metrics.value (Metrics.gauge m "slo.err.burn_slow") in
  check Alcotest.bool "fast window burns" true (burn_fast >= 1.0);
  check Alcotest.bool "slow window does not" true (burn_slow < 1.0);
  check Alcotest.int "spike alone must not fire" 0 (List.length (Obs.Health.alerts h));
  check (Alcotest.float 1e-9) "ok gauge still 1" 1.0
    (Metrics.value (Metrics.gauge m "slo.err.ok"));
  Obs.Health.stop h

let test_both_windows_fire_once () =
  let e = Engine.create () in
  let m = Metrics.create () in
  let h = manual_install m e [ parse1 "err: error_rate < 1% fast=300 slow=3600" ] in
  let bad = Metrics.counter m "service.io_failures" in
  let good = Metrics.counter m "service.demand_fetches_submitted" in
  for i = 1 to 120 do
    Engine.run_until e (float_of_int i *. 30.0);
    Metrics.incr ~by:100 good;
    Obs.Health.tick h
  done;
  (* a sustained breach: the slow window catches up within a few ticks,
     and the latch keeps the alert count at one no matter how long the
     excursion lasts *)
  for i = 121 to 160 do
    Engine.run_until e (float_of_int i *. 30.0);
    Metrics.incr ~by:50 bad;
    Metrics.incr ~by:50 good;
    Obs.Health.tick h
  done;
  let alerts = Obs.Health.alerts h in
  check Alcotest.int "exactly one deduplicated alert" 1 (List.length alerts);
  let a = List.hd alerts in
  check Alcotest.string "kind" "slo" a.Obs.Health.a_kind;
  check Alcotest.string "name" "err" a.Obs.Health.a_name;
  check Alcotest.bool "fast burn recorded" true (a.Obs.Health.a_burn_fast >= 1.0);
  check Alcotest.bool "slow burn recorded" true (a.Obs.Health.a_burn_slow >= 1.0);
  check Alcotest.bool "detail names the spec" true
    (contains a.Obs.Health.a_detail "error_rate");
  check (Alcotest.float 1e-9) "ok gauge dropped" 0.0
    (Metrics.value (Metrics.gauge m "slo.err.ok"));
  (* end-of-run report: the objective is marked breached *)
  (match Obs.Health.breached h with
  | [ r ] ->
      check Alcotest.string "breached objective" "err" r.Obs.Health.r_name;
      check Alcotest.int "alert count in report" 1 r.Obs.Health.r_alerts;
      check Alcotest.bool "worst burn kept" true (r.Obs.Health.r_worst_burn >= 1.0)
  | l -> Alcotest.failf "expected one breached objective, got %d" (List.length l));
  Obs.Health.stop h

let test_hysteresis_rearms () =
  let e = Engine.create () in
  let m = Metrics.create () in
  (* equal windows make the latch arithmetic direct: one minute of
     history total, 6 s buckets *)
  let h = manual_install m e [ parse1 "err: error_rate < 10% fast=60 slow=60" ] in
  let bad = Metrics.counter m "service.io_failures" in
  let good = Metrics.counter m "service.demand_fetches_submitted" in
  let step i dbad dgood =
    Engine.run_until e (float_of_int i *. 30.0);
    Metrics.incr ~by:dbad bad;
    Metrics.incr ~by:dgood good;
    Obs.Health.tick h
  in
  let n = ref 0 in
  let tick_breach () = incr n; step !n 50 50 in
  let tick_clean () = incr n; step !n 0 100 in
  tick_breach ();
  check Alcotest.int "first excursion fires" 1 (List.length (Obs.Health.alerts h));
  tick_breach ();
  tick_breach ();
  check Alcotest.int "still one alert while burning" 1 (List.length (Obs.Health.alerts h));
  (* recovery: burns fall to zero once the breach rotates out, the
     latch re-arms below hysteresis * burn *)
  for _ = 1 to 4 do tick_clean () done;
  check Alcotest.int "recovery fires nothing" 1 (List.length (Obs.Health.alerts h));
  tick_breach ();
  check Alcotest.int "second excursion fires again" 2 (List.length (Obs.Health.alerts h));
  Obs.Health.stop h

(* QCheck: for randomized breach schedules, the alert count must equal
   the rising-edge count of an independently maintained latch over the
   same public Window math. *)
let qcheck_dedup_matches_reference =
  QCheck.Test.make ~name:"alert count = latch rising edges (random schedules)" ~count:60
    QCheck.(small_list (pair (int_range 0 100) (int_range 0 100)))
    (fun schedule ->
      let fast_s = 120.0 and slow_s = 600.0 and burn = 1.0 and hyst = 0.5 in
      let budget = 0.1 in
      let e = Engine.create () in
      let m = Metrics.create () in
      let h =
        manual_install m e
          [ parse1 "r: rate:app.bad/app.good < 10% fast=120 slow=600" ]
      in
      let cb = Metrics.counter m "app.bad" and cg = Metrics.counter m "app.good" in
      (* reference latch over the same window parameters install uses *)
      let wf = Obs.Health.Window.create ~span_s:fast_s ~bucket_s:(fast_s /. 10.0) in
      let ws = Obs.Health.Window.create ~span_s:slow_s ~bucket_s:(fast_s /. 10.0) in
      let firing = ref false and edges = ref 0 in
      List.iteri
        (fun i (b, g) ->
          let now = float_of_int (i + 1) *. 30.0 in
          Engine.run_until e now;
          Metrics.incr ~by:b cb;
          Metrics.incr ~by:g cg;
          Obs.Health.tick h;
          Obs.Health.Window.add wf ~now ~good:(float_of_int g) ~bad:(float_of_int b);
          Obs.Health.Window.add ws ~now ~good:(float_of_int g) ~bad:(float_of_int b);
          let bf = Obs.Health.Window.bad_fraction wf ~now /. budget in
          let bs = Obs.Health.Window.bad_fraction ws ~now /. budget in
          if (not !firing) && bf >= burn && bs >= burn then begin
            firing := true;
            incr edges
          end
          else if !firing && bf < burn *. hyst && bs < burn *. hyst then firing := false)
        schedule;
      let fired = List.length (Obs.Health.alerts h) in
      Obs.Health.stop h;
      fired = !edges)

(* --- latency objectives: the bucket-midpoint bad rule --- *)

let latency_run observations =
  let e = Engine.create () in
  let m = Metrics.create () in
  let h = manual_install m e [ parse1 "lat: demand_fetch.p99 < 40s fast=60 slow=60" ] in
  let hist = Metrics.histogram m "service.demand_fetch_latency_s" in
  List.iter (Metrics.observe hist) observations;
  Engine.run_until e 30.0;
  Obs.Health.tick h;
  let n = List.length (Obs.Health.alerts h) in
  Obs.Health.stop h;
  n

let test_latency_bucket_midpoint () =
  (* 2% of observations far above a p99 threshold: twice the budget *)
  check Alcotest.int "2% over threshold fires" 1
    (latency_run (List.init 98 (fun _ -> 1.0) @ [ 100.0; 100.0 ]));
  (* all observations well under: the 16.8-33.6 s bucket's geometric
     midpoint is ~23.7 s < 40 s, so 30 s observations count good *)
  check Alcotest.int "under threshold stays quiet" 0
    (latency_run (List.init 100 (fun _ -> 30.0)));
  (* bucket resolution is honest about its coarseness: 35 s lands in
     the 33.6-67.1 s bucket whose midpoint ~47.4 s exceeds 40 s, so it
     counts bad — the same representative the percentile estimator
     reports for that bucket *)
  check Alcotest.int "bucket midpoint rule counts 35s as bad" 1
    (latency_run (List.init 100 (fun _ -> 35.0)))

let test_frac_objective () =
  let run queue_wait =
    let e = Engine.create () in
    let m = Metrics.create () in
    let h = manual_install m e [ parse1 "qw: demand_fetch.queue_wait_frac < 0.5 fast=60 slow=60" ] in
    Metrics.observe (Metrics.histogram m "ledger.demand_fetch.e2e_s") 10.0;
    Metrics.observe (Metrics.histogram m "ledger.demand_fetch.queue_wait_s") queue_wait;
    Engine.run_until e 30.0;
    Obs.Health.tick h;
    let n = List.length (Obs.Health.alerts h) in
    Obs.Health.stop h;
    n
  in
  check Alcotest.int "80% queue wait fires" 1 (run 8.0);
  check Alcotest.int "20% queue wait is fine" 0 (run 2.0)

(* --- watchdogs --- *)

let test_deadline_watchdog_blame () =
  let e = Engine.create () in
  let m = Metrics.create () in
  Ledger.install e;
  let h = manual_install ~deadline_s:900.0 m e [] in
  let l = Ledger.open_request ~kind:"demand_fetch" in
  Ledger.charge l Ledger.Robot_swap 800.0;
  Ledger.charge l Ledger.Transfer 50.0;
  Engine.run_until e 1000.0;
  Obs.Health.tick h;
  (match Obs.Health.alerts h with
  | [ a ] ->
      check Alcotest.string "kind" "watchdog.request" a.Obs.Health.a_kind;
      check Alcotest.bool "blames the dominant category" true
        (contains a.Obs.Health.a_detail "robot_swap");
      check Alcotest.bool "reports the runner-up too" true
        (contains a.Obs.Health.a_detail "transfer")
  | l -> Alcotest.failf "expected one watchdog alert, got %d" (List.length l));
  (* flagged once: later ticks stay quiet about the same request *)
  Engine.run_until e 2000.0;
  Obs.Health.tick h;
  check Alcotest.int "no refire for a flagged request" 1
    (List.length (Obs.Health.alerts h));
  Ledger.close l;
  Obs.Health.stop h;
  Ledger.uninstall ()

let test_worker_watchdog () =
  let e = Engine.create () in
  let m = Metrics.create () in
  let h = manual_install ~horizon_s:100.0 m e [] in
  Obs.Health.worker_busy "hl-io-tert0" "fetch seg 12 vol 3";
  Obs.Health.worker_busy "hl-io-tert1" "fetch seg 40 vol 5";
  (* tert1 keeps streaming chunks; tert0 went silent at t=0 *)
  Engine.run_until e 60.0;
  Obs.Health.worker_beat "hl-io-tert1";
  Engine.run_until e 120.0;
  Obs.Health.worker_beat "hl-io-tert1";
  Obs.Health.tick h;
  (match Obs.Health.alerts h with
  | [ a ] ->
      check Alcotest.string "kind" "watchdog.worker" a.Obs.Health.a_kind;
      check Alcotest.string "wedged worker named" "hl-io-tert0" a.Obs.Health.a_name;
      check Alcotest.bool "job named" true (contains a.Obs.Health.a_detail "seg 12")
  | l -> Alcotest.failf "expected one worker alert, got %d" (List.length l));
  (* an idle worker is nobody's problem, and a flagged one reports once *)
  Obs.Health.worker_idle "hl-io-tert0";
  Obs.Health.worker_idle "hl-io-tert1";
  Engine.run_until e 500.0;
  Obs.Health.tick h;
  check Alcotest.int "idle + flagged: no refire" 1 (List.length (Obs.Health.alerts h));
  Obs.Health.stop h

(* --- deadlock detection --- *)

let test_stall_detector () =
  let e = Engine.create () in
  let m = Metrics.of_engine e in
  let h = Obs.Health.install ~tick_s:5.0 ~quiet:true e [] in
  Engine.spawn e ~name:"stuck-fetcher" (fun () -> Engine.suspend (fun _ -> ()));
  (* the tick discovers the wedge from inside the scheduler (pending=0,
     blocked>0), reports once, and stops re-arming so [run] returns *)
  Engine.run e;
  (match Obs.Health.alerts h with
  | [ a ] ->
      check Alcotest.string "kind" "deadlock" a.Obs.Health.a_kind;
      check Alcotest.bool "names the blocked process" true
        (contains a.Obs.Health.a_detail "stuck-fetcher")
  | l -> Alcotest.failf "expected one deadlock alert, got %d" (List.length l));
  check Alcotest.int "health.alerts counter" 1
    (Metrics.count (Metrics.counter m "health.alerts"));
  Obs.Health.stop h

let test_drain_watcher_after_stop () =
  let e = Engine.create () in
  let h = Obs.Health.install ~tick_s:1e12 ~quiet:true e [] in
  Engine.spawn e ~name:"stuck-writer" (fun () -> Engine.suspend (fun _ -> ()));
  (* stop before the run: the periodic tick is gone, but the engine
     drain watcher stays armed and still reports the silent drain *)
  Obs.Health.stop h;
  Engine.run e;
  match Obs.Health.alerts h with
  | [ a ] ->
      check Alcotest.string "kind" "deadlock" a.Obs.Health.a_kind;
      check Alcotest.bool "names the blocked process" true
        (contains a.Obs.Health.a_detail "stuck-writer")
  | l -> Alcotest.failf "expected one deadlock alert, got %d" (List.length l)

(* [stop] takes the plane off its engine, so the service layer's
   heartbeats stop reaching a stopped monitor; stopping a replaced
   plane leaves its successor installed. *)
let test_stop_uninstalls () =
  let e = Engine.create () in
  let old_plane = Obs.Health.install ~tick_s:1e12 ~quiet:true e [] in
  let h = Obs.Health.install ~tick_s:1e12 ~quiet:true e [] in
  Obs.Health.stop old_plane;
  check Alcotest.bool "a replaced plane's stop leaves the new one" true (Obs.Health.enabled ());
  Obs.Health.stop h;
  check Alcotest.bool "disabled after stop" false (Obs.Health.enabled ())

(* --- trace ring + sampling guard --- *)

let test_trace_keep_sampling () =
  check Alcotest.bool "keep is false with no tracer" false (Trace.keep ());
  let e = Engine.create () in
  let tr = Trace.start ~sample:4 e in
  let m = Metrics.of_engine e in
  let recorded = ref 0 in
  for i = 1 to 8 do
    if Trace.keep () then begin
      incr recorded;
      Trace.instant ~track:"t" ~args:[ ("i", string_of_int i) ] "ev"
    end
  done;
  Trace.stop ();
  check Alcotest.int "1 in 4 admitted" 2 !recorded;
  check Alcotest.int "admitted events recorded" 2 (Trace.event_count tr);
  check Alcotest.int "sampled-out counted as dropped" 6
    (Metrics.count (Metrics.counter m "trace.dropped"))

let test_trace_ring_eviction () =
  let e = Engine.create () in
  let tr = Trace.start ~limit:4 ~ring:true e in
  Engine.spawn e (fun () ->
      for i = 1 to 10 do
        Trace.instant ~track:"ring" (Printf.sprintf "ev%d" i);
        Engine.delay 1.0
      done);
  Engine.run e;
  Trace.stop ();
  (* amortized eviction: never more than 2*limit held, oldest gone *)
  check Alcotest.bool "bounded" true (Trace.event_count tr <= 8);
  check Alcotest.bool "evicted some" true (Trace.evicted tr > 0);
  check Alcotest.int "ring evictions are not drops" 0 (Trace.dropped tr);
  let js = Trace.export tr in
  check Alcotest.bool "newest kept" true (contains js "ev10");
  check Alcotest.bool "oldest evicted" false (contains js "\"ev1\"")

let test_flight_dump_window () =
  let e = Engine.create () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hl_flight_test" in
  let fl = Sim.Flight.start ~ring:1000 ~window_s:50.0 ~dir e in
  Engine.spawn e ~name:"emitter" (fun () ->
      Trace.instant ~track:"t" "early-event";
      Engine.delay 99.0;
      Trace.instant ~track:"t" "late-event");
  Engine.run e;
  let path = Sim.Flight.dump ~alerts:[ "slo lat (demand_fetch.p99 < 40s)" ] ~reason:"slo lat" fl in
  check (Alcotest.list Alcotest.string) "dump listed" [ path ] (Sim.Flight.dumps fl);
  let read f =
    let ic = open_in_bin (Filename.concat path f) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let trace = read "trace.json" in
  check Alcotest.bool "chrome trace array" true (trace.[0] = '[');
  (* the dump covers only the flight window: last 50 s of a 99 s run *)
  check Alcotest.bool "recent event in window" true (contains trace "late-event");
  check Alcotest.bool "old event cut" false (contains trace "early-event");
  let manifest = read "manifest.json" in
  check Alcotest.bool "manifest has reason" true (contains manifest "slo lat");
  check Alcotest.bool "manifest lists active alerts" true
    (contains manifest "demand_fetch.p99");
  check Alcotest.bool "sanitized dir name" true
    (contains path "slo-lat" || contains path "slo_lat");
  Sim.Flight.stop fl;
  check Alcotest.bool "flight-owned tracer uninstalled" false (Trace.enabled ())

let suite =
  [
    ( "health.window",
      [
        Alcotest.test_case "rotation at bucket boundaries" `Quick test_window_rotation;
        Alcotest.test_case "arbitrary time gaps" `Quick test_window_gap;
      ] );
    ( "health.parse",
      [
        Alcotest.test_case "accepts the documented grammar" `Quick test_parse_good;
        Alcotest.test_case "rejects bad input with line numbers" `Quick test_parse_bad;
      ] );
    ( "health.burn",
      [
        Alcotest.test_case "fast-only spike does not fire" `Quick
          test_fast_only_spike_no_fire;
        Alcotest.test_case "both windows fire exactly once" `Quick
          test_both_windows_fire_once;
        Alcotest.test_case "hysteresis re-arms after recovery" `Quick
          test_hysteresis_rearms;
        QCheck_alcotest.to_alcotest qcheck_dedup_matches_reference;
      ] );
    ( "health.objectives",
      [
        Alcotest.test_case "latency bucket-midpoint rule" `Quick
          test_latency_bucket_midpoint;
        Alcotest.test_case "ledger wait-fraction objective" `Quick test_frac_objective;
      ] );
    ( "health.watchdogs",
      [
        Alcotest.test_case "deadline watchdog blames the stuck request" `Quick
          test_deadline_watchdog_blame;
        Alcotest.test_case "worker watchdog catches the wedged drive" `Quick
          test_worker_watchdog;
        Alcotest.test_case "stall detector unwedges the run" `Quick test_stall_detector;
        Alcotest.test_case "drain watcher survives stop" `Quick
          test_drain_watcher_after_stop;
        Alcotest.test_case "stop uninstalls" `Quick test_stop_uninstalls;
      ] );
    ( "health.flight",
      [
        Alcotest.test_case "trace.keep consumes sampling slots" `Quick
          test_trace_keep_sampling;
        Alcotest.test_case "ring keeps the newest events" `Quick test_trace_ring_eviction;
        Alcotest.test_case "black-box dump covers the window" `Quick
          test_flight_dump_window;
      ] );
  ]
