(* Write-out pipeline bench: the copy-out half of the hierarchy,
   quantified.

   Phase 1 stages the same files to disk (deferred migration) and then
   copies the staged segments out to tape one at a time, streamed in
   64 KB chunks and blocking (one chunk of the whole segment). Tape is
   where the serialized shape hurts most: a 16 MB segment spends
   ~11.5 s crossing the staging disk and ~15 s crossing the Metrum
   drive, and the blocking copy-out pays them back to back. The
   streaming copy-out reads the next chunk off the disk
   while the previous one is still going down the tape, so a segment's
   copy-out costs max(read, write) + one chunk instead of read + write.
   A Ledger is installed around the measured phase so the gain shows up
   as genuine transfer overlap in the "writeout" class attribution —
   the tertiary_write seconds must match across modes (the same bytes
   cross the same tape) while the disk-side categories collapse.

   Phase 2 demonstrates the cost-aware idle readahead: a warmed working
   set is ejected, one demand read loads the volume, and the idle
   tertiary workers quietly stage the remaining warm segments while the
   reader thinks. The timed re-read then runs mostly out of cache.

   Results go to stdout and to BENCH_writeout.json (schema
   highlight-bench-writeout/v1) for CI trend tracking. *)

open Lfs

(* ---------- phase 1: tape copy-out wall-clock ---------- *)

let wo_seg_blocks = 4096 (* 16 MB segments: tape wants large units *)
let wo_file_blocks = 500 (* 2 MB files: direct + one indirect level *)
let wo_nfiles = 4 (* one staged tape segment each; full-image copy-outs *)

let pattern tag nbytes = Bytes.init nbytes (fun i -> Char.chr ((tag + (i * 31)) land 0xff))

type wo_run = {
  per_seg_s : float; (* mean copy-out wall-clock per staged segment *)
  elapsed_s : float; (* all segments, sequential request+await *)
  segments : int;
  overlap : float; (* Hl.stats.writeout_overlap *)
  disk_busy : float;
  tert_busy : float;
  ok : bool;
  mutable attribution : (string * (string * float) list) list;
}

let run_writeout ~streaming =
  let engine = Sim.Engine.create () in
  let r =
    Config.in_sim engine (fun () ->
        let bus = Device.Scsi_bus.create engine "scsi0" in
        let disk = Device.Disk.create engine ~bus Device.Disk.rz57 ~name:"rz57" in
        let jukebox =
          Device.Jukebox.create engine ~drives:2 ~nvolumes:2
            ~vol_capacity:(8 * wo_seg_blocks) ~media:Device.Jukebox.metrum_tape
            ~changer:Device.Jukebox.metrum_changer "metrum"
        in
        let fp = Footprint.create ~seg_blocks:wo_seg_blocks ~segs_per_volume:8 [ jukebox ] in
        let dev = Dev.of_disk disk in
        let prm =
          {
            Config.paper_prm with
            Param.seg_blocks = wo_seg_blocks;
            nsegs = (dev.Dev.nblocks / wo_seg_blocks) - 1;
          }
        in
        let hl = Highlight.Hl.mkfs engine prm ~disk:dev ~fp () in
        let st = Highlight.Hl.state hl in
        let fsys = Highlight.Hl.fs hl in
        let file_bytes = wo_file_blocks * prm.Param.block_size in
        let paths = List.init wo_nfiles (fun i -> Printf.sprintf "/cold%d" i) in
        List.iteri
          (fun i path -> Highlight.Hl.write_file hl path (pattern (i + 1) file_bytes))
          paths;
        Fs.checkpoint fsys;
        st.Highlight.State.restrict_volume <- Some 0;
        (* stage only, one file per segment: the images land on the
           staging disk, the copy-out is deferred so the measured phase
           is pure copy-out *)
        List.iter
          (fun p ->
            ignore
              (Highlight.Migrator.stage_files_only st [ (Dir.namei fsys p).Lfs.Inode.inum ]))
          paths;
        let staged = ref [] in
        Highlight.Seg_cache.iter (Highlight.Hl.cache hl) (fun l ->
            if l.Highlight.Seg_cache.state = Highlight.Seg_cache.Staging then
              staged := l :: !staged);
        let lines =
          List.sort
            (fun a b ->
              compare a.Highlight.Seg_cache.tindex b.Highlight.Seg_cache.tindex)
            !staged
        in
        Highlight.Hl.reset_stats hl;
        (* blocking copy-out is the one-chunk write-out: the staging read
           lifts the whole image before the tape write starts *)
        let stream_chunk = st.Highlight.State.stream_chunk_blocks in
        if not streaming then st.Highlight.State.stream_chunk_blocks <- wo_seg_blocks;
        (* attribute the measured copy-outs only, not the setup staging *)
        Sim.Ledger.install engine;
        let ok = ref true in
        let t0 = Sim.Engine.now engine in
        let per_seg =
          List.map
            (fun line ->
              let t = Sim.Engine.now engine in
              (match Highlight.Service.(await (request_writeout st line)) with
              | Highlight.State.Done | Highlight.State.Rehomed _ -> ()
              | _ -> ok := false);
              Sim.Engine.now engine -. t)
            lines
        in
        let elapsed = Sim.Engine.now engine -. t0 in
        (* quiesce so the in-flight ledgers close before the harvest *)
        Sim.Engine.delay 30.0;
        (* the read-back's fetches stream at the usual grain *)
        st.Highlight.State.stream_chunk_blocks <- stream_chunk;
        let s = Highlight.Hl.stats hl in
        if s.Highlight.Hl.writeouts <> List.length lines then ok := false;
        (* read back through the tape copies: the copy-out must have
           written what the migrator staged *)
        st.Highlight.State.restrict_volume <- None;
        Highlight.Hl.eject_tertiary_copies hl ~paths;
        List.iteri
          (fun i path ->
            let got = Highlight.Hl.read_file hl path () in
            if not (Bytes.equal got (pattern (i + 1) file_bytes)) then ok := false)
          paths;
        Config.harvest_metrics (Highlight.Hl.metrics hl);
        Highlight.Hl.shutdown_service hl;
        let n = List.length per_seg in
        {
          per_seg_s = (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 per_seg /. float_of_int n);
          elapsed_s = elapsed;
          segments = n;
          overlap = s.Highlight.Hl.writeout_overlap;
          disk_busy = s.Highlight.Hl.io_disk_time;
          tert_busy = s.Highlight.Hl.io_tertiary_time;
          ok = !ok;
          attribution = [];
        })
  in
  r.attribution <-
    Config.take_attribution
      (Printf.sprintf "writeout.%s" (if streaming then "streaming" else "blocking"));
  r

(* ---------- phase 2: cost-aware idle readahead ---------- *)

let idle_seg_blocks = 16
let idle_file_blocks = 12 (* all direct: one staged segment per file *)
let idle_nfiles = 16

type idle_run = {
  reread_s : float; (* timed re-read of the warm set, file 0 excluded *)
  demand_fetches : int;
  issued : int;
  used : int;
  preempted : int;
}

let run_idle ~idle =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let prm = Param.for_tests ~seg_blocks:idle_seg_blocks ~nsegs:96 () in
      let store =
        Device.Blockstore.create ~block_size:prm.Param.block_size
          ~nblocks:(Layout.disk_blocks prm)
      in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:2
          ~vol_capacity:(32 * idle_seg_blocks) ~media:Device.Jukebox.hp6300_platter
          ~changer:Device.Jukebox.hp6300_changer "hp6300"
      in
      let fp = Footprint.create ~seg_blocks:idle_seg_blocks ~segs_per_volume:32 [ jukebox ] in
      let hl =
        Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:20 ()
      in
      let st = Highlight.Hl.state hl in
      let fsys = Highlight.Hl.fs hl in
      let file_bytes = idle_file_blocks * prm.Param.block_size in
      let paths = Array.init idle_nfiles (fun i -> Printf.sprintf "/w%02d" i) in
      Array.iteri
        (fun i path -> Highlight.Hl.write_file hl path (pattern (i + 1) file_bytes))
        paths;
      Fs.checkpoint fsys;
      st.Highlight.State.restrict_volume <- Some 0;
      Array.iter
        (fun path -> ignore (Highlight.Migrator.migrate_paths st ~with_inodes:false [ path ]))
        paths;
      st.Highlight.State.restrict_volume <- None;
      (* warm the set once: every segment earns heat, inodes enter the
         in-memory inode table *)
      Array.iter (fun path -> ignore (Highlight.Hl.read_file hl path ())) paths;
      Highlight.Hl.eject_tertiary_copies hl ~paths:(Array.to_list paths);
      Highlight.Hl.reset_stats hl;
      Highlight.Hl.set_idle_readahead hl idle;
      (* one demand read loads the volume; then think time, during which
         idle drives stage the rest of the warm set (or sit, if off) *)
      ignore (Highlight.Hl.read_file hl paths.(0) ());
      Sim.Engine.delay 300.0;
      let t0 = Sim.Engine.now engine in
      for i = 1 to idle_nfiles - 1 do
        ignore (Highlight.Hl.read_file hl paths.(i) ())
      done;
      let reread_s = Sim.Engine.now engine -. t0 in
      let s = Highlight.Hl.stats hl in
      let used =
        Sim.Metrics.count (Sim.Metrics.counter (Highlight.Hl.metrics hl) "idle.used")
      in
      Highlight.Hl.shutdown_service hl;
      {
        reread_s;
        demand_fetches = s.Highlight.Hl.demand_fetches;
        issued = s.Highlight.Hl.idle_prefetches_issued;
        used;
        preempted = s.Highlight.Hl.idle_prefetches_preempted;
      })

(* ---------- driver ---------- *)

(* writeout-class category blame as a JSON object (seconds per category) *)
let attr_json attribution =
  match List.assoc_opt "writeout" attribution with
  | None -> "{}"
  | Some cats ->
      "{ "
      ^ String.concat ", " (List.map (fun (c, v) -> Printf.sprintf "%S: %.6f" c v) cats)
      ^ " }"

let attr_cat attribution cat =
  match List.assoc_opt "writeout" attribution with
  | None -> 0.0
  | Some cats -> ( match List.assoc_opt cat cats with Some v -> v | None -> 0.0)

let attr_e2e attribution =
  match List.assoc_opt "writeout" attribution with
  | None -> 0.0
  | Some cats -> List.fold_left (fun a (_, v) -> a +. v) 0.0 cats

let run () =
  let blocking = run_writeout ~streaming:false in
  let streaming = run_writeout ~streaming:true in
  let t =
    Util.Tablefmt.create
      ~title:
        (Printf.sprintf "Streaming write-out: %d MB tape segments, %d staged copy-outs"
           (wo_seg_blocks * 4096 / 1024 / 1024)
           blocking.segments)
      ~header:
        [
          "mode"; "per-seg (s)"; "elapsed (s)"; "overlap"; "disk busy (s)";
          "tape busy (s)"; "bytes";
        ]
  in
  let row name (r : wo_run) =
    Util.Tablefmt.add_row t
      [
        name;
        Printf.sprintf "%.1f" r.per_seg_s;
        Printf.sprintf "%.1f" r.elapsed_s;
        Printf.sprintf "%.2f" r.overlap;
        Printf.sprintf "%.1f" r.disk_busy;
        Printf.sprintf "%.1f" r.tert_busy;
        (if r.ok then "identical" else "CORRUPT");
      ]
  in
  row "blocking" blocking;
  row "streaming" streaming;
  Util.Tablefmt.print t;
  let speedup =
    if streaming.per_seg_s > 0.0 then blocking.per_seg_s /. streaming.per_seg_s else 0.0
  in
  let b_tw = attr_cat blocking.attribution "tertiary_write" in
  let s_tw = attr_cat streaming.attribution "tertiary_write" in
  let tw_parity = if b_tw > 0.0 then s_tw /. b_tw else 0.0 in
  let s_e2e = attr_e2e streaming.attribution in
  let b_e2e = attr_e2e blocking.attribution in
  let tw_share = if s_e2e > 0.0 then s_tw /. s_e2e else 0.0 in
  Printf.printf "  copy-out speedup: %.2fx per segment (target >= 1.5x)  [%s]\n" speedup
    (if speedup >= 1.5 && blocking.ok && streaming.ok then "ok" else "FAIL");
  Printf.printf
    "  writeout overlap: streaming %.2f (target >= 1.5), blocking %.2f (target <= 1.1)  [%s]\n"
    streaming.overlap blocking.overlap
    (if streaming.overlap >= 1.5 && blocking.overlap <= 1.1 then "ok" else "FAIL");
  Printf.printf
    "  attribution: tertiary_write %.1f s vs %.1f s (ratio %.3f, target 1 +/- 0.1) — the \
     same bytes cross the tape  [%s]\n"
    s_tw b_tw tw_parity
    (if tw_parity >= 0.9 && tw_parity <= 1.1 then "ok" else "FAIL");
  Printf.printf
    "  attribution: streaming e2e %.1f s is %.0f%% tertiary_write (blocking e2e %.1f s) — \
     the disk read hid inside the tape write, not inside queue_wait  [%s]\n"
    s_e2e (100.0 *. tw_share) b_e2e
    (if tw_share >= 0.75 && s_e2e < b_e2e then "ok" else "FAIL");
  let off = run_idle ~idle:false in
  let on = run_idle ~idle:true in
  Printf.printf
    "  idle readahead: %d issued, %d used, %d preempted; warm re-read %.1f s vs %.1f s \
     off (demand fetches %d vs %d)  [%s]\n"
    on.issued on.used on.preempted on.reread_s off.reread_s on.demand_fetches
    off.demand_fetches
    (if on.issued > 0 && on.used > 0 && on.reread_s < off.reread_s then "ok" else "FAIL");
  let verified =
    blocking.ok && streaming.ok && speedup >= 1.5 && streaming.overlap >= 1.5
    && blocking.overlap <= 1.1
    && tw_parity >= 0.9 && tw_parity <= 1.1
  in
  let oc = open_out "BENCH_writeout.json" in
  Printf.fprintf oc
    {|{
  "schema": "highlight-bench-writeout/v1",
  "tape_segment_bytes": %d,
  "staged_segments": %d,
  "copyout_per_segment_s": { "blocking": %.3f, "streaming": %.3f, "speedup": %.3f },
  "copyout_elapsed_s": { "blocking": %.3f, "streaming": %.3f },
  "writeout_overlap": { "blocking": %.4f, "streaming": %.4f },
  "attribution": {
    "blocking": %s,
    "streaming": %s
  },
  "tertiary_write_parity": %.4f,
  "idle_readahead": {
    "issued": %d, "used": %d, "preempted": %d,
    "warm_reread_s": { "off": %.3f, "on": %.3f },
    "demand_fetches": { "off": %d, "on": %d }
  },
  "verified": %b
}
|}
    (wo_seg_blocks * 4096) blocking.segments blocking.per_seg_s streaming.per_seg_s speedup
    blocking.elapsed_s streaming.elapsed_s blocking.overlap streaming.overlap
    (attr_json blocking.attribution)
    (attr_json streaming.attribution)
    tw_parity on.issued on.used on.preempted off.reread_s on.reread_s off.demand_fetches
    on.demand_fetches verified;
  close_out oc;
  print_endline "  wrote BENCH_writeout.json"
