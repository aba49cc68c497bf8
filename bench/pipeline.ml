(* Pipeline bench: the demand-fetch-heavy scenario the pipelined
   service/I-O layer exists for. Two 8 MB files are migrated to two
   different MO volumes; two concurrent readers then stream them back in
   1 MB chunks with sequential prefetch depth 2, forcing a steady train
   of demand fetches plus prefetches. The same run is timed under the
   serial baseline ([State.Serial], the paper's one-request-at-a-time
   configuration) and the pipelined worker pool; with two jukebox drives
   and the cache disk on its own SCSI bus, the pipelined mode overlaps
   both drives' reads with the cache-disk writes.

   Reported: simulated elapsed time per mode, the speedup, the overlap
   factor (phase busy time / busy-span wall time), and a byte-for-byte
   verification of everything read back. *)

open Lfs

let file_bytes = 8 * 1024 * 1024
let chunk = 1024 * 1024

let pattern tag = Bytes.init file_bytes (fun i -> Char.chr ((tag + (i * 31)) land 0xff))

type run = {
  elapsed : float;
  ok : bool;
  fetches : int;
  prefetches_dropped : int;
  overlap : float;
  swaps : int;
  alerts : int;  (* health-plane alerts: a clean scenario must fire none *)
  (* class -> blame-ranked (category, seconds): why the elapsed time *)
  mutable attribution : (string * (string * float) list) list;
}

let run_mode label io_mode =
  let engine = Sim.Engine.create () in
  let r =
    Config.in_sim engine (fun () ->
      (* cache disk on its own bus; the jukebox drives are bus-less so
         the tertiary and disk transfer phases can truly overlap *)
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
      let hl = Highlight.Hl.mkfs engine prm ~disk:dev ~fp ~io_mode () in
      Highlight.Hl.set_prefetch_sequential hl ~depth:2;
      let st = Highlight.Hl.state hl in
      let fsys = Highlight.Hl.fs hl in
      let data_a = pattern 1 and data_b = pattern 2 in
      Highlight.Hl.write_file hl "/a" data_a;
      Highlight.Hl.write_file hl "/b" data_b;
      Fs.checkpoint fsys;
      (* pin the files to different volumes so each feeds its own drive *)
      st.Highlight.State.restrict_volume <- Some 0;
      ignore (Highlight.Migrator.migrate_paths st [ "/a" ]);
      st.Highlight.State.restrict_volume <- Some 1;
      ignore (Highlight.Migrator.migrate_paths st [ "/b" ]);
      st.Highlight.State.restrict_volume <- None;
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      Highlight.Hl.reset_stats hl;
      (* attribute only the measured phase: the setup writeouts above
         are not what the serial-vs-pipelined comparison is about *)
      Sim.Ledger.install engine;
      (* clean scenario under the same SLO as the faulty bench: the
         health plane must stay silent here *)
      let health =
        match Obs.Health.parse "fetch_p99: demand_fetch.p99 < 40s\nerr: error_rate < 1%\n" with
        | Error msg -> failwith ("pipeline bench: bad SLO: " ^ msg)
        | Ok objectives ->
            Obs.Health.install ~quiet:true engine objectives
      in
      let swaps0 = Footprint.swaps fp in
      let t0 = Sim.Engine.now engine in
      let done_cv = Sim.Condvar.create () in
      let remaining = ref 2 in
      let ok = ref true in
      let reader name path data =
        Sim.Engine.spawn engine ~name (fun () ->
            let buf = Buffer.create file_bytes in
            for i = 0 to (file_bytes / chunk) - 1 do
              Buffer.add_bytes buf
                (Highlight.Hl.read_file hl path ~off:(i * chunk) ~len:chunk ())
            done;
            if not (String.equal (Buffer.contents buf) (Bytes.to_string data)) then
              ok := false;
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
      {
        elapsed;
        ok = !ok;
        fetches = s.Highlight.Hl.demand_fetches;
        prefetches_dropped = s.Highlight.Hl.prefetches_dropped;
        overlap = s.Highlight.Hl.io_overlap;
        swaps = Footprint.swaps fp - swaps0;
        alerts = List.length (Obs.Health.alerts health);
        attribution = [];
      })
  in
  r.attribution <- Config.take_attribution ("pipeline." ^ label);
  r

let run () =
  let serial = run_mode "serial" Highlight.State.Serial in
  let piped = run_mode "pipelined" Highlight.State.Pipelined in
  let t =
    Util.Tablefmt.create
      ~title:
        "Pipelined service/I-O: 2 concurrent 8 MB streams from 2 MO volumes, prefetch \
         depth 2"
      ~header:[ "mode"; "elapsed (s)"; "fetches"; "pf dropped"; "overlap"; "swaps"; "bytes" ]
  in
  let row name r =
    Util.Tablefmt.add_row t
      [
        name;
        Printf.sprintf "%.1f" r.elapsed;
        string_of_int r.fetches;
        string_of_int r.prefetches_dropped;
        Printf.sprintf "%.2fx" r.overlap;
        string_of_int r.swaps;
        (if r.ok then "identical" else "CORRUPT");
      ]
  in
  row "serial" serial;
  row "pipelined" piped;
  Util.Tablefmt.print t;
  let speedup = if piped.elapsed > 0.0 then serial.elapsed /. piped.elapsed else 0.0 in
  Printf.printf "  speedup: %.2fx (target >= 1.4x)  [%s]\n" speedup
    (if speedup >= 1.4 && serial.ok && piped.ok then "ok" else "FAIL");
  Printf.printf "  health plane: %d alert(s) on the clean scenario (must be 0)  [%s]\n"
    (serial.alerts + piped.alerts)
    (if serial.alerts = 0 && piped.alerts = 0 then "ok" else "FAIL");
  let dom r = Config.dominant_wait r.attribution "demand_fetch" in
  Printf.printf
    "  dominant demand-fetch wait: serial=%s (expect queue_wait: every request stacks\n\
    \  behind the single I/O process), pipelined=%s  [%s]\n"
    (dom serial) (dom piped)
    (if dom serial = "queue_wait" then "ok" else "FAIL");
  print_endline
    "  shape checks: pipelined overlap factor > serial's ~1.0; contents identical in\n\
    \  both modes; speedup comes from drive parallelism + read/write phase overlap."
