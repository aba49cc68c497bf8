(* Streaming-fetch bench: the first-block wakeup and the adaptive
   readahead, quantified.

   Phase 1 runs the same tape-backed demand-read workload with the
   streaming fetch on and off. Tape is where the paper's whole-segment
   fetch hurts most: large segments amortise the Metrum's 8 s locate
   startup, so a 16 MB segment spends ~15 s crossing the drive — all of
   which a blocking reader waits out for one 4 KB block. The streaming
   fetch wakes that reader after the first chunk. Device throughput
   (segment bytes per second of tertiary busy time) must not move:
   chunked delivery changes who wakes when, not how the tape streams.

   Phases 2 and 3 drive the accuracy-adaptive readahead over a
   sequential and a uniformly random workload, against the fixed
   depth-4 policy the paper's clustering suggests, and report prefetch
   accuracy and waste.

   Results go to stdout and to BENCH_streaming.json (schema
   highlight-bench-streaming/v1) for CI trend tracking. *)

open Lfs

(* ---------- phase 1: tape first-block latency ---------- *)

let tape_seg_blocks = 4096 (* 16 MB segments: tape wants large units *)
let tape_file_blocks = 500 (* 2 MB files: direct + one indirect level *)
let tape_nfiles = 4

let pattern tag nbytes = Bytes.init nbytes (fun i -> Char.chr ((tag + (i * 31)) land 0xff))

type latency_run = {
  first_p50 : float;
  first_p95 : float;
  (* device-level segment throughput: fetched bytes / tertiary busy time *)
  seg_throughput : float;
  read_elapsed : float; (* end-to-end: all files, first block + full read *)
  fetches : int;
  tertiary_busy : float;
  ok : bool;
  mutable attribution : (string * (string * float) list) list;
}

let run_latency ~streaming =
  let engine = Sim.Engine.create () in
  let r =
    Config.in_sim engine (fun () ->
      let bus = Device.Scsi_bus.create engine "scsi0" in
      let disk = Device.Disk.create engine ~bus Device.Disk.rz57 ~name:"rz57" in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:2
          ~vol_capacity:(8 * tape_seg_blocks) ~media:Device.Jukebox.metrum_tape
          ~changer:Device.Jukebox.metrum_changer "metrum"
      in
      let fp = Footprint.create ~seg_blocks:tape_seg_blocks ~segs_per_volume:8 [ jukebox ] in
      let dev = Dev.of_disk disk in
      let prm =
        {
          Config.paper_prm with
          Param.seg_blocks = tape_seg_blocks;
          nsegs = (dev.Dev.nblocks / tape_seg_blocks) - 1;
        }
      in
      let hl = Highlight.Hl.mkfs engine prm ~disk:dev ~fp () in
      Highlight.Hl.set_streaming_fetch hl streaming;
      let st = Highlight.Hl.state hl in
      let fsys = Highlight.Hl.fs hl in
      let file_bytes = tape_file_blocks * prm.Param.block_size in
      let paths = List.init tape_nfiles (fun i -> Printf.sprintf "/tape%d" i) in
      List.iteri
        (fun i path -> Highlight.Hl.write_file hl path (pattern (i + 1) file_bytes))
        paths;
      Fs.checkpoint fsys;
      st.Highlight.State.restrict_volume <- Some 0;
      (* inodes stay disk-resident: the measured fetches are file data *)
      List.iter
        (fun path ->
          ignore (Highlight.Migrator.migrate_paths st ~with_inodes:false [ path ]))
        paths;
      st.Highlight.State.restrict_volume <- None;
      Highlight.Hl.eject_tertiary_copies hl ~paths;
      Highlight.Hl.reset_stats hl;
      (* attribute the measured reads only, not the setup migration *)
      Sim.Ledger.install engine;
      let ok = ref true in
      let t0 = Sim.Engine.now engine in
      List.iteri
        (fun i path ->
          (* the 4 KB the user wanted: lands in first_block_latency_s *)
          let first = Highlight.Hl.read_file hl path ~off:0 ~len:prm.Param.block_size () in
          (* then the rest of the file, riding the same fetch *)
          let full = Highlight.Hl.read_file hl path () in
          let expect = pattern (i + 1) file_bytes in
          if
            (not (Bytes.equal full expect))
            || not (Bytes.equal first (Bytes.sub expect 0 prm.Param.block_size))
          then ok := false)
        paths;
      let read_elapsed = Sim.Engine.now engine -. t0 in
      (* quiesce: with streaming on, the tail of the last segment is
         still crossing the drive when the reader finishes — let it land
         so both modes charge the same transfers to the busy clock *)
      Sim.Engine.delay 120.0;
      let s = Highlight.Hl.stats hl in
      let fetched_bytes =
        s.Highlight.Hl.demand_fetches * tape_seg_blocks * prm.Param.block_size
      in
      let seg_throughput =
        if s.Highlight.Hl.io_tertiary_time > 0.0 then
          float_of_int fetched_bytes /. s.Highlight.Hl.io_tertiary_time
        else 0.0
      in
      Config.harvest_metrics (Highlight.Hl.metrics hl);
      Highlight.Hl.shutdown_service hl;
      {
        first_p50 = s.Highlight.Hl.first_block_p50;
        first_p95 = s.Highlight.Hl.first_block_p95;
        seg_throughput;
        read_elapsed;
        fetches = s.Highlight.Hl.demand_fetches;
        tertiary_busy = s.Highlight.Hl.io_tertiary_time;
        ok = !ok;
        attribution = [];
      })
  in
  r.attribution <-
    Config.take_attribution
      (Printf.sprintf "streaming.%s" (if streaming then "streaming" else "blocking"));
  r

(* ---------- phases 2/3: readahead accuracy ---------- *)

let ra_seg_blocks = 16
let ra_file_blocks = 12 (* all direct: one staged segment per file *)
let ra_nfiles = 24

type ra_world = { hl : Highlight.Hl.t; paths : string array }

let make_ra_world ?(cache_segs = 12) engine =
  let prm = Param.for_tests ~seg_blocks:ra_seg_blocks ~nsegs:96 () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let jukebox =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:2
      ~vol_capacity:(32 * ra_seg_blocks) ~media:Device.Jukebox.hp6300_platter
      ~changer:Device.Jukebox.hp6300_changer "hp6300"
  in
  let fp = Footprint.create ~seg_blocks:ra_seg_blocks ~segs_per_volume:32 [ jukebox ] in
  let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs () in
  let st = Highlight.Hl.state hl in
  let fsys = Highlight.Hl.fs hl in
  let file_bytes = ra_file_blocks * prm.Param.block_size in
  let paths = Array.init ra_nfiles (fun i -> Printf.sprintf "/f%02d" i) in
  Array.iteri (fun i path -> Highlight.Hl.write_file hl path (pattern (i + 1) file_bytes)) paths;
  Fs.checkpoint fsys;
  st.Highlight.State.restrict_volume <- Some 0;
  (* one migrate call per file, inodes disk-resident: file i is exactly
     tertiary segment i, so sequential files are sequential segments *)
  Array.iter
    (fun path -> ignore (Highlight.Migrator.migrate_paths st ~with_inodes:false [ path ]))
    paths;
  st.Highlight.State.restrict_volume <- None;
  Highlight.Hl.eject_tertiary_copies hl ~paths:(Array.to_list paths);
  Highlight.Hl.reset_stats hl;
  { hl; paths }

let read_all hl path = ignore (Highlight.Hl.read_file hl path ())

let run_sequential_adaptive () =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let w = make_ra_world engine in
      let ra = Highlight.Hl.set_prefetch_adaptive w.hl () in
      Array.iter
        (fun path ->
          read_all w.hl path;
          (* think time: in-flight prefetches land before the next file *)
          Sim.Engine.delay 30.0)
        w.paths;
      let s = Highlight.Hl.stats w.hl in
      Highlight.Hl.shutdown_service w.hl;
      ( s.Highlight.Hl.prefetch_accuracy,
        s.Highlight.Hl.prefetches_used,
        s.Highlight.Hl.prefetches_wasted,
        Highlight.Readahead.depth ra ))

(* deterministic LCG so the two random runs replay the same accesses *)
let random_order n reads =
  let seed = ref 12345 in
  List.init reads (fun _ ->
      seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
      !seed mod n)

let run_random policy_label install =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let w = make_ra_world ~cache_segs:6 engine in
      install w.hl;
      List.iter
        (fun i ->
          read_all w.hl w.paths.(i);
          Sim.Engine.delay 30.0)
        (random_order ra_nfiles 40);
      let s = Highlight.Hl.stats w.hl in
      Highlight.Hl.shutdown_service w.hl;
      ignore policy_label;
      (s.Highlight.Hl.prefetches_used, s.Highlight.Hl.prefetches_wasted))

(* ---------- driver ---------- *)

(* demand-fetch category blame as a JSON object (seconds per category) *)
let attr_json attribution =
  match List.assoc_opt "demand_fetch" attribution with
  | None -> "{}"
  | Some cats ->
      "{ "
      ^ String.concat ", " (List.map (fun (c, v) -> Printf.sprintf "%S: %.6f" c v) cats)
      ^ " }"

let run () =
  let blocking = run_latency ~streaming:false in
  let streaming = run_latency ~streaming:true in
  let seq_accuracy, seq_used, seq_wasted, seq_depth = run_sequential_adaptive () in
  let fixed_used, fixed_wasted =
    run_random "fixed-4" (fun hl -> Highlight.Hl.set_prefetch_sequential hl ~depth:4)
  in
  let adaptive_used, adaptive_wasted =
    run_random "adaptive" (fun hl -> ignore (Highlight.Hl.set_prefetch_adaptive hl ()))
  in
  let t =
    Util.Tablefmt.create
      ~title:
        (Printf.sprintf
           "Streaming demand fetch: %d MB tape segments, %d files, 4 KB first read"
           (tape_seg_blocks * 4096 / 1024 / 1024)
           tape_nfiles)
      ~header:
        [
          "mode";
          "first-block p50 (s)";
          "p95 (s)";
          "seg MB/s";
          "fetches";
          "busy (s)";
          "elapsed (s)";
          "bytes";
        ]
  in
  let row name (r : latency_run) =
    Util.Tablefmt.add_row t
      [
        name;
        Printf.sprintf "%.2f" r.first_p50;
        Printf.sprintf "%.2f" r.first_p95;
        Printf.sprintf "%.3f" (r.seg_throughput /. 1024.0 /. 1024.0);
        string_of_int r.fetches;
        Printf.sprintf "%.1f" r.tertiary_busy;
        Printf.sprintf "%.1f" r.read_elapsed;
        (if r.ok then "identical" else "CORRUPT");
      ]
  in
  row "blocking" blocking;
  row "streaming" streaming;
  Util.Tablefmt.print t;
  let speedup =
    if streaming.first_p50 > 0.0 then blocking.first_p50 /. streaming.first_p50 else 0.0
  in
  let tput_ratio =
    if blocking.seg_throughput > 0.0 then streaming.seg_throughput /. blocking.seg_throughput
    else 0.0
  in
  Printf.printf "  first-block speedup: %.2fx (target >= 2x)  [%s]\n" speedup
    (if speedup >= 2.0 && blocking.ok && streaming.ok then "ok" else "FAIL");
  Printf.printf "  segment throughput ratio: %.3f (target 1 +/- 0.05)  [%s]\n" tput_ratio
    (if tput_ratio >= 0.95 && tput_ratio <= 1.05 then "ok" else "FAIL");
  Printf.printf
    "  adaptive readahead, sequential: accuracy %.2f (target >= 0.8), used %d, wasted %d, \
     depth %d  [%s]\n"
    seq_accuracy seq_used seq_wasted seq_depth
    (if seq_accuracy >= 0.8 then "ok" else "FAIL");
  Printf.printf
    "  random workload waste: adaptive %d vs fixed-4 %d (target: adaptive lower)  [%s]\n"
    adaptive_wasted fixed_wasted
    (if adaptive_wasted < fixed_wasted then "ok" else "FAIL");
  let oc = open_out "BENCH_streaming.json" in
  Printf.fprintf oc
    {|{
  "schema": "highlight-bench-streaming/v1",
  "tape_segment_bytes": %d,
  "first_block_latency_s": {
    "blocking": { "p50": %.6f, "p95": %.6f },
    "streaming": { "p50": %.6f, "p95": %.6f },
    "speedup_p50": %.3f
  },
  "segment_throughput_bytes_s": {
    "blocking": %.1f,
    "streaming": %.1f,
    "ratio": %.4f
  },
  "read_elapsed_s": { "blocking": %.2f, "streaming": %.2f },
  "adaptive_sequential": { "accuracy": %.4f, "used": %d, "wasted": %d, "final_depth": %d },
  "random_workload": {
    "fixed4": { "used": %d, "wasted": %d },
    "adaptive": { "used": %d, "wasted": %d }
  },
  "attribution": {
    "blocking": %s,
    "streaming": %s
  },
  "verified": %b
}
|}
    (tape_seg_blocks * 4096) blocking.first_p50 blocking.first_p95 streaming.first_p50
    streaming.first_p95 speedup blocking.seg_throughput streaming.seg_throughput tput_ratio
    blocking.read_elapsed streaming.read_elapsed seq_accuracy seq_used seq_wasted seq_depth
    fixed_used fixed_wasted adaptive_used adaptive_wasted
    (attr_json blocking.attribution)
    (attr_json streaming.attribution)
    (blocking.ok && streaming.ok);
  close_out oc;
  print_endline "  wrote BENCH_streaming.json"
