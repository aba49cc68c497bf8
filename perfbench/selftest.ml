(* The benchmark's own tests: a short run of each workload, twice with
   one seed and once with another, traced so that the accounting
   identities are checked too; the read checker catching a stale block
   and a flipped byte; and the workload record, perfbench/workloads.json
   and the whys in BENCHMARK.json, matching the generator. *)

open Hlbench

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let sim_view r =
  (r.digest, r.layers, r.waits, r.lats, r.r_acc.attempted, r.r_acc.failed, r.r_acc.returned)

let () =
  let f = { path = "/x"; tags = [| 0; 0 |]; known = true } in
  apply f 7 ~off:0 ~len:(2 * block);
  let data = payload 7 ~off:0 ~len:(2 * block) in
  expect "model: a faithful read matches" (matches f ~off:0 data);
  expect "model: a partial read matches" (matches f ~off:4093 (Bytes.sub data 4093 20));
  apply f 8 ~off:block ~len:block;
  expect "model: a stale block does not match" (not (matches f ~off:0 data));
  let fresh = Bytes.cat (Bytes.sub data 0 block) (payload 8 ~off:block ~len:block) in
  expect "model: the overwritten file matches" (matches f ~off:0 fresh);
  Bytes.set fresh 5000 (Char.chr (Char.code (Bytes.get fresh 5000) lxor 1));
  expect "model: a flipped byte does not match" (not (matches f ~off:0 fresh));
  let swapped = Bytes.cat (Bytes.sub fresh block block) (Bytes.sub data 0 block) in
  expect "model: blocks in the wrong place do not match" (not (matches f ~off:0 swapped))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let () =
  expect "workloads.json is what main.exe --describe prints"
    (read_file "workloads.json" = describe ~held_out_seed);
  let bench = read_file "../BENCHMARK.json" in
  (* hot_read is not among the gated workloads: its host time follows
     the load on the shared host too closely to hold a bound *)
  List.iter
    (fun wl ->
      let listed = contains bench (Printf.sprintf "\"name\": %S" wl.wname) in
      expect
        (Printf.sprintf "BENCHMARK.json %s %s" (if listed then "gives its why to" else "leaves out") wl.wname)
        (if wl.wname = "hot_read" then not listed
         else contains bench (Printf.sprintf "\"name\": %S,\n      \"why\": %S" wl.wname wl.why)))
    workloads

let () =
  List.iter
    (fun wl ->
      let ops = max 100 (wl.ops / 10) in
      let run seed = run_rep ~ops ~traced:true wl ~seed in
      let a = run 1 and b = run 1 and c = run 2 in
      let name s = Printf.sprintf "%s: %s" wl.wname s in
      expect (name "no failed op") (a.r_acc.failed = 0 && a.r_acc.attempted = ops);
      expect (name "end-of-run checks pass") (a.check_problems = []);
      expect (name "accounting identities hold") (a.broken = []);
      expect (name "same seed, same simulated results and digest") (sim_view a = sim_view b);
      expect (name "another seed, another digest") (a.digest <> c.digest);
      List.iter
        (fun k -> expect (name (k ^ " is 0 in the measured phase")) (get a.layers k = 0.0))
        wl.zero;
      (* ingest's writes and archiving fetch nothing back; the cleaner
         loads migrated inodes, and the benchmark reports what that costs *)
      if wl.wname = "ingest" then begin
        expect (name "migrates in the measured phase") (get a.layers "migrator.calls" > 0.0);
        expect
          (name "every demand fetch comes from the cleaner")
          (get a.layers "service.demand_fetches" = get a.layers "cleaner.demand_fetches")
      end)
    workloads;
  if !failures > 0 then exit 1
