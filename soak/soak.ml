(* Soak test: a 300-event Zipf archival trace on a deliberately
   undersized HighLight disk, with watermark-driven automigration and
   emergency cleaning, audited with a full fsck every 25 events and at
   the end. This is the harness that found the FINFO-ordering and
   space-liveness bugs; it should always print "clean run".

   A metrics sampler snapshots the registry every 10 simulated minutes
   over the whole soak (cache hits/misses, queue-depth high-water,
   latency percentiles per interval) and writes the time series to
   SOAK_snapshots.csv — the view that shows a slow leak or a queue
   ratchet which the end-of-run totals would average away.

   The health plane rides along with lenient SLOs (latency far above
   anything a healthy soak produces, error rate < 1%): its
   slo.<name>.burn_fast/burn_slow/ok gauges land in the same CSV, so
   every snapshot row carries the per-window compliance timeline. A
   sustained burn — any objective actually firing — fails the run
   with exit 4.

     dune exec soak/soak.exe [seed] [--gc-stats] *)

open Lfs
open Workload

let () =
  let argv = Array.to_list Sys.argv in
  let gc_stats = List.mem "--gc-stats" argv in
  let seed =
    match List.filter_map int_of_string_opt (List.tl argv) with s :: _ -> s | [] -> 7
  in
  let g0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let engine = Sim.Engine.create () in
  let result = ref None in
  let sampler = ref None in
  let health = ref None in
  Sim.Engine.spawn engine (fun () ->
      let prm = { Soak_config.paper_prm with Param.nsegs = 24; max_inodes = 1024 } in
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
      let jb =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:(24 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:24 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_segs:6 () in
      sampler :=
        Some
          (Sim.Snapshot.start engine ~metrics:(Highlight.Hl.metrics hl) ~period:600.0 ());
      (* Lenient objectives: a healthy soak sits far inside both
         budgets, so a firing here is a real regression, not noise. *)
      (match
         Obs.Health.parse "fetch_p99: demand_fetch.p99 < 600s\nerr: error_rate < 1%\n"
       with
      | Error e ->
          Printf.eprintf "soak: bad built-in SLOs: %s\n" e;
          exit 2
      | Ok objectives ->
          health := Some (Obs.Health.install engine objectives));
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      ignore (Dir.mkdir fs "/archive");
      Printf.printf "soak: trace seed %d\n%!" seed;
      let events =
        Trace.generate ~seed
          { Trace.default with Trace.events = 300; nfiles = 24; mean_file_bytes = 768 * 1024 }
      in
      let tick = ref 0 in
      let stp = { Policy.Stp.time_exp = 1.0; size_exp = 1.0; min_idle = 30.0 } in
      let check_now tag =
        if !tick mod 25 <> 0 then ()
        else
        match Highlight.Hl.check hl @ (try Debug.fsck fs with e -> [ "fsck raised: " ^ Printexc.to_string e ]) with
        | [] -> ()
        | probs ->
            Printf.eprintf "CORRUPT after %s (tick %d):\n" tag !tick;
            List.iter (fun p -> Printf.eprintf "  %s\n" p) probs;
            exit 2
      in
      Trace.replay ~engine
        ~write:(fun path ~off data ->
          incr tick;

          (try Highlight.Hl.write_file hl path ~off data
           with Fs.No_space ->
             Printf.eprintf "ENOSPC at write tick %d\n%!" !tick;
             ignore (Cleaner.clean_until fs ~target_clean:16 ()));
          check_now ("write " ^ path);
          if !tick mod 5 = 0 then begin
            (try
               ignore
                 (Policy.Automigrate.run_once st
                    ~policy:(Policy.Automigrate.stp_policy stp)
                    ~low_water:(prm.Param.nsegs / 2)
                    ~high_water:(prm.Param.nsegs * 3 / 4))
             with e -> Printf.eprintf "automigrate exn tick %d: %s\n%!" !tick (Printexc.to_string e));
            check_now "automigrate"
          end)
        ~read:(fun path ~off ~len ->
          incr tick;
          (match Dir.namei_opt fs path with
          | None -> ()
          | Some ino -> ignore (File.read fs ino ~off ~len));
          check_now ("read " ^ path))
        ~delete:(fun path ->
          incr tick;
          (try Dir.unlink fs path with Not_found -> ());
          check_now ("delete " ^ path))
        events;
      (match Highlight.Hl.check hl @ Debug.fsck fs with
       | [] -> ()
       | probs ->
           Printf.eprintf "CORRUPT at end:\n";
           List.iter (fun p -> Printf.eprintf "  %s\n" p) probs;
           exit 2);
      Highlight.Hl.shutdown_service hl;
      Obs.Health.stop (Option.get !health);
      Sim.Snapshot.stop (Option.get !sampler);
      result := Some ());
  Sim.Engine.run engine;
  (match !sampler with
  | Some s ->
      Sim.Snapshot.write_csv s "SOAK_snapshots.csv";
      Printf.printf "snapshots: %d samples (every %.0fs) -> SOAK_snapshots.csv\n"
        (Sim.Snapshot.length s) (Sim.Snapshot.period s)
  | None -> ());
  (match !health with
  | None -> ()
  | Some h ->
      let breached = Obs.Health.breached h in
      Printf.printf "health: %d ticks, %d alert(s), %d/%d objectives ok\n"
        (Obs.Health.ticks h)
        (List.length (Obs.Health.alerts h))
        (List.length (Obs.Health.compliance h) - List.length breached)
        (List.length (Obs.Health.compliance h));
      if breached <> [] then begin
        List.iter
          (fun r ->
            Printf.eprintf "SUSTAINED BURN: %s (%s): %d alert(s), worst burn %.2fx\n"
              r.Obs.Health.r_name r.Obs.Health.r_spec r.Obs.Health.r_alerts
              r.Obs.Health.r_worst_burn)
          breached;
        exit 4
      end);
  if gc_stats then begin
    let cpu = Sys.time () -. cpu0 in
    let g1 = Gc.quick_stat () in
    let events = Sim.Engine.events_retired engine in
    let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
    Printf.printf "gc-stats: %d events in %.3fs cpu (%.0f events/sec; %.1f sim-s per cpu-s)\n"
      events cpu
      (if cpu > 0.0 then float_of_int events /. cpu else 0.0)
      (if cpu > 0.0 then Sim.Engine.now engine /. cpu else 0.0);
    Printf.printf
      "gc-stats: minor words %.3e (%.1f/event)   major words %.3e   collections %d minor / %d \
       major\n"
      minor
      (if events > 0 then minor /. float_of_int events else 0.0)
      (g1.Gc.major_words -. g0.Gc.major_words)
      (g1.Gc.minor_collections - g0.Gc.minor_collections)
      (g1.Gc.major_collections - g0.Gc.major_collections)
  end;
  match !result with Some () -> print_endline "clean run" | None -> (print_endline "did not finish"; exit 3)
