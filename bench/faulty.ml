(* Fault bench: the pipeline read-back scenario rerun under injected
   device faults (see lib/sim/fault.mli for the plan DSL).

   Three rows: a clean baseline; 5% transient media errors on every
   jukebox drive (every fetch and write-out has a real chance of
   failing mid-transfer, the service layer retries with backoff); and a
   permanently dead drive (killed on its first operation, so the whole
   run falls over to the surviving drive). The run is only considered
   healthy if every byte read back is identical to what was written,
   nothing hangs, and the failure rows show the expected retry/failover
   counters while the baseline shows none. *)

open Lfs

let file_bytes = 8 * 1024 * 1024
let chunk = 1024 * 1024

let pattern tag = Bytes.init file_bytes (fun i -> Char.chr ((tag + (i * 31)) land 0xff))

type run = {
  elapsed : float;
  ok : bool;
  fetches : int;
  retries : int;
  failures : int;
  injected : int;
  alerts : int;  (* SLO alerts fired by the health plane *)
  bundle : string option;  (* black-box dump of the first alert *)
}

(* The ISSUE's example objective: every scenario runs under the same
   latency SLO. The baseline and the retried transient errors stay
   inside 40 s per fetch; only the dead drive — every request funneled
   through one drive with a platter swap per file — breaches it. *)
let slo_text = "fetch_p99: demand_fetch.p99 < 40s\n"

let run_plan plan_text =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let bus = Device.Scsi_bus.create engine "scsi0" in
      let disk = Device.Disk.create engine ~bus Device.Disk.rz57 ~name:"rz57" in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:10240
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer
          "hp6300"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:40 [ jukebox ] in
      let dev = Dev.of_disk disk in
      let prm = { Config.paper_prm with Param.nsegs = (dev.Dev.nblocks / 256) - 1 } in
      let hl = Highlight.Hl.mkfs engine prm ~disk:dev ~fp () in
      (* armed right after mkfs: migration write-outs and the read-back
         fetches both run under the plan *)
      (match plan_text with
      | None -> ()
      | Some text -> (
          match Sim.Fault.parse text with
          | Ok plan -> Sim.Fault.install engine plan
          | Error msg -> failwith ("faulty bench: bad plan: " ^ msg)));
      let flight = Sim.Flight.start ~dir:"blackbox-faulty" engine in
      let health =
        match Obs.Health.parse slo_text with
        | Error msg -> failwith ("faulty bench: bad SLO: " ^ msg)
        | Ok objectives ->
            Obs.Health.install ~quiet:true ~flight engine objectives
      in
      Highlight.Hl.set_prefetch_sequential hl ~depth:2;
      let st = Highlight.Hl.state hl in
      let fsys = Highlight.Hl.fs hl in
      let data_a = pattern 1 and data_b = pattern 2 in
      Highlight.Hl.write_file hl "/a" data_a;
      Highlight.Hl.write_file hl "/b" data_b;
      Fs.checkpoint fsys;
      st.Highlight.State.restrict_volume <- Some 0;
      ignore (Highlight.Migrator.migrate_paths st [ "/a" ]);
      st.Highlight.State.restrict_volume <- Some 1;
      ignore (Highlight.Migrator.migrate_paths st [ "/b" ]);
      st.Highlight.State.restrict_volume <- None;
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      let t0 = Sim.Engine.now engine in
      let done_cv = Sim.Condvar.create () in
      let remaining = ref 2 in
      let ok = ref true in
      let reader name path data =
        Sim.Engine.spawn engine ~name (fun () ->
            (try
               let buf = Buffer.create file_bytes in
               for i = 0 to (file_bytes / chunk) - 1 do
                 Buffer.add_bytes buf
                   (Highlight.Hl.read_file hl path ~off:(i * chunk) ~len:chunk ())
               done;
               if not (String.equal (Buffer.contents buf) (Bytes.to_string data)) then
                 ok := false
             with Highlight.State.Io_error _ -> ok := false);
            decr remaining;
            Sim.Condvar.broadcast done_cv)
      in
      reader "reader-a" "/a" data_a;
      reader "reader-b" "/b" data_b;
      while !remaining > 0 do
        Sim.Condvar.wait done_cv
      done;
      let elapsed = Sim.Engine.now engine -. t0 in
      let s = Highlight.Hl.stats hl in
      Config.harvest_metrics (Highlight.Hl.metrics hl);
      Highlight.Hl.shutdown_service hl;
      Obs.Health.stop health;
      let slo_alerts =
        List.filter (fun a -> a.Obs.Health.a_kind = "slo") (Obs.Health.alerts health)
      in
      Sim.Flight.stop flight;
      Sim.Fault.clear ();
      {
        elapsed;
        ok = !ok;
        fetches = s.Highlight.Hl.demand_fetches;
        retries = s.Highlight.Hl.io_retries;
        failures = s.Highlight.Hl.io_failures;
        injected = s.Highlight.Hl.faults_injected;
        alerts = List.length slo_alerts;
        bundle =
          (match slo_alerts with a :: _ -> a.Obs.Health.a_bundle | [] -> None);
      })

let transient_plan = "seed=11\nhp6300:drive* read,write prob=0.05 media_error transient\n"
let dead_drive_plan = "hp6300:drive1 * op=1 media_error permanent\n"

let run () =
  let baseline = run_plan None in
  let flaky = run_plan (Some transient_plan) in
  let degraded = run_plan (Some dead_drive_plan) in
  let t =
    Util.Tablefmt.create
      ~title:"Fault injection: 2 x 8 MB read-back under media errors and a dead drive"
      ~header:
        [ "scenario"; "elapsed (s)"; "fetches"; "faults"; "retries"; "failures"; "alerts";
          "bytes" ]
  in
  let row name r =
    Util.Tablefmt.add_row t
      [
        name;
        Printf.sprintf "%.1f" r.elapsed;
        string_of_int r.fetches;
        string_of_int r.injected;
        string_of_int r.retries;
        string_of_int r.failures;
        string_of_int r.alerts;
        (if r.ok then "identical" else "CORRUPT");
      ]
  in
  row "baseline" baseline;
  row "5% media errors" flaky;
  row "drive1 dead" degraded;
  Util.Tablefmt.print t;
  let bundle_ok =
    match degraded.bundle with
    | None -> false
    | Some dir ->
        (* the dump must be a complete black box: a non-empty Chrome
           trace plus the metrics snapshot and manifest *)
        List.for_all
          (fun f ->
            let p = Filename.concat dir f in
            Sys.file_exists p && (Unix.stat p).Unix.st_size > 2)
          [ "trace.json"; "metrics.json"; "manifest.json" ]
  in
  let healthy =
    baseline.ok && baseline.injected = 0 && baseline.alerts = 0
    && flaky.ok && flaky.injected > 0 && flaky.retries > 0 && flaky.alerts = 0
    && degraded.ok && degraded.injected > 0 && degraded.failures = 0
    && degraded.alerts = 1 && bundle_ok
  in
  Printf.printf "  transient faults retried: %d over %d injections; dead drive absorbed by \
                 failover (slowdown %.2fx)  [%s]\n"
    flaky.retries flaky.injected
    (if baseline.elapsed > 0.0 then degraded.elapsed /. baseline.elapsed else 0.0)
    (if healthy then "ok" else "FAIL");
  Printf.printf "  health plane (%s): dead drive fired %d deduplicated alert(s)%s\n"
    (String.trim slo_text) degraded.alerts
    (match degraded.bundle with
    | Some d -> Printf.sprintf "; black box -> %s" d
    | None -> "");
  print_endline
    "  shape checks: every scenario byte-identical; faults appear only when injected;\n\
    \  the dead-drive run completes on the sibling drive with zero request failures;\n\
    \  only the dead drive breaches the latency SLO, exactly once, with a full black box."
