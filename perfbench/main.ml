(* Command line of the HighLight benchmark.

     main.exe --workload recall|ingest|hot_read --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --describe          (the workload record, as JSON)

   --trace 0 repeats the workload untraced and prints the end-to-end
   metrics; its JSON line carries the host ones, which are steady
   across seeds, and the simulated ones are printed above it. --trace 1
   alternates untraced and traced repetitions and prints the per-layer
   metrics, the host probes and the tracing overhead; its spans go to
   DIR (default .perfbench). Either way the
   last line of output is one JSON object: correct, attempted, failed
   and metrics. The exit code is 0 when the run completed, whether or
   not its checks passed ("correct" says that). *)

open Hlbench

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the value with [p] of the sample at or below it *)
let pct a p =
  let n = Array.length a in
  let i = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
  (a.(i), n - i - 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload recall|ingest|hot_read --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       main.exe --describe";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--describe" ] then begin
    print_string (describe ~held_out_seed);
    exit 0
  end;
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let int_opt k = Option.bind (opt k args) int_of_string_opt in
  let wl =
    match opt "--workload" args with
    | Some n -> ( match List.find_opt (fun w -> w.wname = n) workloads with Some w -> w | None -> usage ())
    | None -> usage ()
  in
  let seed = match int_opt "--seed" with Some s -> s | None -> usage () in
  let seconds = match int_opt "--seconds" with Some s when s > 0 -> float_of_int s | _ -> usage () in
  let traced = match int_opt "--trace" with Some 0 -> false | Some 1 -> true | _ -> usage () in
  let out_dir = Option.value (opt "--out" args) ~default:".perfbench" in
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  (* repetitions until [seconds] have passed (at least [min_reps]); all
     but the first are kept slim *)
  let repeat min_reps f =
    let rec go acc =
      let acc = f (acc = []) :: acc in
      if List.length acc >= min_reps && (elapsed () >= seconds || List.length acc >= 40) then List.rev acc
      else go acc
    in
    go []
  in
  let reps, traced_reps =
    if traced then
      let pairs =
        repeat 1 (fun first ->
            let keep r = if first then r else slim r in
            let u = keep (run_rep ~check:false ~traced:false wl ~seed) in
            let t = keep (run_rep ~traced:true wl ~seed) in
            (u, t))
      in
      (List.map fst pairs, List.map snd pairs)
    else
      (* the end-of-run checks are deterministic: the first repetition
         makes them, and the digest ties the others to it *)
      ( repeat 3 (fun first ->
            let r = run_rep ~check:first ~traced:false wl ~seed in
            if first then r else slim r),
        [] )
  in
  let r = List.hd reps in
  let acc = r.r_acc in
  let all = reps @ traced_reps in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  List.iter
    (fun x ->
      if x.digest <> r.digest then
        problem (Printf.sprintf "digest %s differs from the first repetition's %s" x.digest r.digest))
    all;
  (* the checked repetitions: the first untraced one, or the traced ones *)
  let checked = if traced then traced_reps else [ r ] in
  List.iter (fun x -> List.iter problem (x.check_problems @ x.r_acc.errors)) checked;
  Printf.printf "workload %s, seed %d: %d untraced and %d traced repetitions\n" wl.wname seed
    (List.length reps) (List.length traced_reps);
  Printf.printf "digest %s\n" r.digest;
  let line name value unit note = Printf.printf "  %-26s %14.6f %-6s %s\n" name value unit note in
  let main_kind = if wl.wname = "ingest" then "write" else "access" in
  let lat_metric name kind p =
    match List.assoc_opt kind r.lats with
    | Some a when Array.length a > 0 ->
        let v, beyond = pct a p in
        line name v "s" (Printf.sprintf "(sim; n=%d, %d beyond)" (Array.length a) beyond);
        v
    | _ ->
        problem (Printf.sprintf "no %s latencies recorded" kind);
        nan
  in
  let host_s = median (List.map (fun x -> x.host_s) reps) in
  let setup_s = median (List.map (fun x -> x.setup_s) reps) in
  let heap_mb = median (List.map (fun x -> x.heap_mb) reps) in
  let n_reps = Printf.sprintf "(host CPU; median of %d)" (List.length reps) in
  line "host_s" host_s "s" n_reps;
  Printf.printf "    per repetition: %s\n" (String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" x.host_s) reps));
  line "setup_s" setup_s "s" n_reps;
  line "peak_heap_mb" heap_mb "MB" (Printf.sprintf "(host; largest major heap of a repetition, median of %d)" (List.length reps));
  if wl.wname = "recall" then begin
    ignore (lat_metric "first_byte_p50_s" "first_byte" 0.50);
    ignore (lat_metric "first_byte_p99_s" "first_byte" 0.99)
  end;
  ignore (lat_metric (main_kind ^ "_p50_s") main_kind 0.50);
  ignore (lat_metric (main_kind ^ "_p99_s") main_kind 0.99);
  (* MB per simulated second of the workload's main operation: bytes
     read over the summed access time (recall, hot_read), or bytes
     migrated over the time spent in migrating calls (ingest, the
     paper's Table 6 figure) *)
  let mb_s, mb_name, mb_note =
    if wl.wname = "ingest" then
      ( ratio (float_of_int acc.migr_bytes) acc.migr_sim /. mib,
        "migrate_mb_s",
        Printf.sprintf "(sim; %d bytes in %d migrating calls, %.1f s)" acc.migr_bytes acc.migr_calls
          acc.migr_sim )
    else
      let busy =
        match List.assoc_opt main_kind r.lats with
        | Some a -> Array.fold_left ( +. ) 0.0 a
        | None -> 0.0
      in
      ( ratio (float_of_int acc.returned) busy /. mib,
        "read_mb_s",
        Printf.sprintf "(sim; %d bytes over %.1f s of access time)" acc.returned busy )
  in
  line mb_name mb_s "MB/s" mb_note;
  line "generator_lag_max_s" acc.max_lag "s" "(sim; latest start of an op after its due time)";
  Printf.printf "  load: %.3f ops in flight on average, %d at most; jukebox drives %.3f busy\n"
    (get r.layers "load.in_flight_mean") acc.max_in_flight (get r.layers "load.drive_occupancy");
  let error_rate = ratio (float_of_int acc.failed) (float_of_int acc.attempted) in
  line "error_rate" error_rate "" (Printf.sprintf "(%d failed of %d ops)" acc.failed acc.attempted);
  List.iter (fun e -> Printf.printf "    failure: %s\n" e) (List.rev acc.errors);
  Printf.printf
    "  reads: %d bytes requested, %d returned; %d files read back after the load; every byte \
     checked against the model\n"
    acc.requested acc.returned (List.hd checked).r_acc.read_back;
  let metrics =
    if not traced then
      [
        ("host_s", host_s, "s");
        ("setup_s", setup_s, "s");
        ("peak_heap_mb", heap_mb, "MB");
      ]
    else begin
      let t = List.hd traced_reps in
      List.iter (fun b -> problem ("identity broken: " ^ b)) t.broken;
      Printf.printf "  accounting identities: %s\n"
        (if t.broken = [] then "all hold" else String.concat "; " t.broken);
      Printf.printf "  fetches cancelled at shutdown: %g\n" t.shutdown_cancelled;
      let events = get t.layers "engine.events" in
      let traced_host = median (List.map (fun x -> x.host_s) traced_reps) in
      let engine =
        [
          ("engine.host_ns_per_event", ratio (host_s *. 1e9) events, "ns");
          ("engine.minor_words_per_event", ratio r.minor_words events, "words");
          ("engine.major_words", r.major_words, "words");
          ("engine.major_collections", float_of_int r.major_collections, "count");
        ]
      in
      let unit_of k =
        let ends suffix = String.ends_with ~suffix k in
        if ends "_s" then "s"
        else if ends "bytes_read" || ends "bytes_written" then "B"
        else if List.exists ends [ "ratio"; "accuracy"; "overlap"; "write_amp"; "share"; "occupancy" ] then "ratio"
        else "count"
      in
      let probes =
        List.concat_map
          (fun (name, f) ->
            let ns, words = f () in
            [ ("probe." ^ name ^ ".ns_per_op", ns, "ns"); ("probe." ^ name ^ ".words_per_op", words, "words") ])
          probes
      in
      let spans = span_table t.spans in
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let spans_file = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" wl.wname seed) in
      write_spans spans_file t.spans;
      Printf.printf "  spans (%d, written to %s): name, count, sim total/self s, host total/self s\n"
        (List.length t.spans) spans_file;
      List.iter
        (fun (name, (n, st, sf, ht, hf)) ->
          Printf.printf "    %-24s %7d %14.3f %14.3f %9.3f %9.3f\n" name n st sf ht hf)
        spans;
      List.map (fun (k, v) -> (k, v, unit_of k)) (List.filter (fun (k, _) -> k = "engine.events") t.layers)
      @ engine
      @ List.map (fun (k, v) -> (k, v, unit_of k)) (List.filter (fun (k, _) -> k <> "engine.events") t.layers)
      @ List.map (fun (k, v) -> (k, v, unit_of k)) t.waits
      @ probes
      @ [ ("trace.overhead_pct", 100.0 *. ratio (traced_host -. host_s) host_s, "%") ]
    end
  in
  if traced then List.iter (fun (k, v, u) -> line k v u "") metrics;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let correct = problems = [] && acc.failed = 0 in
  Printf.printf "result: %s\n" (if correct then "correct" else "NOT correct");
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    acc.attempted acc.failed
    (String.concat ", "
       (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u) metrics))
