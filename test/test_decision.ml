(* Migration-observatory unit tests: heat decay, the decision ring,
   NDJSON export, the three closed-loop SLIs, and shadow-policy
   counterfactual scoring. Each test installs the log on a fresh engine
   (which becomes the current one) and drives it directly — no
   filesystem needed — and uninstalls it on every exit path. *)

open Obs

let check = Alcotest.check

let with_obs ?cap ?max_rejected ?window ?half_life f =
  Decision.install ?cap ?max_rejected ?window ?half_life (Sim.Engine.create ());
  Fun.protect ~finally:Decision.uninstall f

(* --- Heat --- *)

let test_heat_decay () =
  let h = Heat.create ~half_life:10.0 () in
  check (Alcotest.float 0.0) "untouched key is cold" 0.0 (Heat.get h ~now:0.0 42);
  Heat.touch h ~now:0.0 42;
  check (Alcotest.float 1e-9) "fresh touch = weight" 1.0 (Heat.get h ~now:0.0 42);
  check (Alcotest.float 1e-9) "one half-life halves" 0.5 (Heat.get h ~now:10.0 42);
  check (Alcotest.float 1e-9) "two half-lives quarter" 0.25 (Heat.get h ~now:20.0 42);
  Heat.touch h ~now:10.0 ~weight:2.0 42;
  check (Alcotest.float 1e-9) "touch adds to decayed temp" 2.5 (Heat.get h ~now:10.0 42);
  check Alcotest.int "size counts tracked keys" 1 (Heat.size h);
  Heat.clear h;
  check (Alcotest.float 0.0) "clear forgets" 0.0 (Heat.get h ~now:10.0 42)

let test_heat_capacity_sweep () =
  let h = Heat.create ~half_life:10.0 ~capacity:8 () in
  (* keys 0..7 touched once long ago, then hot keys force a sweep *)
  for k = 0 to 7 do
    Heat.touch h ~now:0.0 k
  done;
  for k = 100 to 103 do
    Heat.touch h ~now:100.0 k;
    Heat.touch h ~now:100.0 k
  done;
  check Alcotest.bool "sweep keeps table bounded" true (Heat.size h <= 8);
  check Alcotest.bool "hot keys survive the sweep" true (Heat.get h ~now:100.0 103 > 0.0)

(* --- Decision ring --- *)

let emit_n ?(site = Decision.Stp_rank) n =
  for i = 0 to n - 1 do
    Decision.emit ~now:(float_of_int i) ~site ~policy:"stp:1,1"
      ~chosen:[ Decision.candidate i ] ~rejected:[] ()
  done

let test_ring_cap_and_dropped () =
  with_obs ~cap:4 @@ fun () ->
  emit_n 6;
  let rs = Decision.records () in
  check Alcotest.int "ring keeps cap records" 4 (List.length rs);
  check Alcotest.int "oldest survivor is seq 2" 2 (List.hd rs).Decision.seq;
  match Decision.sli () with
  | None -> Alcotest.fail "sli None while installed"
  | Some s ->
      check Alcotest.int "all emissions counted" 6 s.Decision.decisions;
      check Alcotest.int "overflow counted as dropped" 2 s.Decision.dropped

let test_rejected_capped () =
  with_obs ~max_rejected:2 @@ fun () ->
  let cands = List.init 5 Decision.candidate in
  Decision.emit ~now:0.0 ~site:Decision.Clean_victims ~policy:"greedy"
    ~chosen:[ Decision.candidate 9 ] ~rejected:cands ();
  let r = List.hd (Decision.records ()) in
  check Alcotest.int "rejected truncated to max_rejected" 2
    (List.length r.Decision.rejected);
  check Alcotest.int "best rejected kept first" 0
    (List.hd r.Decision.rejected).Decision.cid

let test_disabled_is_inert () =
  Decision.uninstall ();
  check Alcotest.bool "disabled after uninstall" false (Decision.enabled ());
  emit_n 3;
  Decision.touch_file ~now:0.0 7;
  Decision.note_segment_demoted ~now:0.0 7;
  check Alcotest.int "no records while disabled" 0 (List.length (Decision.records ()));
  check Alcotest.bool "sli None while disabled" true (Decision.sli () = None);
  check (Alcotest.float 0.0) "temps read 0 while disabled" 0.0
    (Decision.file_temp ~now:0.0 7)

let test_ndjson_shape () =
  with_obs @@ fun () ->
  Decision.emit ~now:12.5 ~site:Decision.Namespace_rank ~policy:"namespace:1,1"
    ~budget:4096
    ~chosen:
      [
        Decision.candidate 3 ~label:"/proj/a" ~members:[ 3; 4 ] ~score:99.0
          ~feats:{ Decision.idle = 60.0; size = 4096; util = 0.0; temp = 0.5; age = 7.0 };
      ]
    ~rejected:[ Decision.candidate 8 ] ();
  emit_n 2;
  let lines =
    String.split_on_char '\n' (Decision.to_ndjson ())
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per record" 3 (List.length lines);
  let l0 = List.hd lines in
  let has needle =
    let nl = String.length needle and ll = String.length l0 in
    let rec go i = i + nl <= ll && (String.sub l0 i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "object braces" true
    (l0.[0] = '{' && l0.[String.length l0 - 1] = '}');
  List.iter
    (fun n -> check Alcotest.bool ("ndjson has " ^ n) true (has n))
    [
      "\"seq\":0"; "\"site\":\"namespace_rank\""; "\"policy\":\"namespace:1,1\"";
      "\"budget\":4096"; "\"label\":\"/proj/a\""; "\"members\":[3,4]";
      "\"idle\":60"; "\"rejected\":[{\"id\":8";
    ]

(* --- Closed-loop SLIs --- *)

let get_sli () =
  match Decision.sli () with
  | Some s -> s
  | None -> Alcotest.fail "sli None while installed"

let test_migration_mistake_window () =
  with_obs ~window:100.0 @@ fun () ->
  check (Alcotest.float 0.0) "window readable" 100.0 (Decision.mistake_window ());
  Decision.note_segment_demoted ~now:0.0 5;
  Decision.note_segment_demoted ~now:0.0 6;
  Decision.note_segment_demoted ~now:0.0 7;
  (* in-window demand fetch: a mistake *)
  Decision.note_segment_access ~now:50.0 ~miss:true 5;
  (* late demand fetch: forgiven *)
  Decision.note_segment_access ~now:500.0 ~miss:true 6;
  (* in-window but a hit (ride-along): not a demand fetch, no mistake *)
  Decision.note_segment_access ~now:50.0 ~miss:false 7;
  let s = get_sli () in
  check Alcotest.int "demotions counted" 3 s.Decision.seg_demotions;
  check Alcotest.int "only the in-window miss is a mistake" 1 s.Decision.seg_mistakes;
  check (Alcotest.float 1e-9) "mistake rate" (1.0 /. 3.0) s.Decision.mistake_rate;
  (* the demotion entry is consumed by its first access *)
  Decision.note_segment_access ~now:60.0 ~miss:true 5;
  check Alcotest.int "each demotion scores at most once" 1
    (get_sli ()).Decision.seg_mistakes

let test_file_recall_bytes () =
  with_obs ~window:100.0 @@ fun () ->
  Decision.note_file_demoted ~now:0.0 ~inum:11 ~bytes:4096;
  Decision.note_file_demoted ~now:0.0 ~inum:12 ~bytes:8192;
  Decision.touch_file ~now:30.0 11;
  (* inum 12 stays cold *)
  let s = get_sli () in
  check Alcotest.int "file demotions" 2 s.Decision.file_demotions;
  check Alcotest.int "one recall" 1 s.Decision.file_recalls;
  check Alcotest.int "recalled bytes attributed" 4096 s.Decision.recalled_bytes

let test_eviction_regret_per_policy () =
  with_obs ~window:100.0 @@ fun () ->
  Decision.note_evicted ~now:0.0 ~policy:"lru" 3;
  Decision.note_evicted ~now:0.0 ~policy:"lru" 4;
  Decision.note_evicted ~now:0.0 ~policy:"random" 5;
  (* regret: evicted line demand-fetched back in-window *)
  Decision.note_segment_access ~now:10.0 ~miss:true 3;
  (* a hit on an evicted tindex is not a re-fetch *)
  Decision.note_segment_access ~now:10.0 ~miss:false 4;
  let s = get_sli () in
  check Alcotest.int "evictions" 3 s.Decision.evictions;
  check Alcotest.int "regrets" 1 s.Decision.regrets;
  check (Alcotest.float 1e-9) "regret rate" (1.0 /. 3.0) s.Decision.regret_rate;
  match s.Decision.by_evict_policy with
  | [ lru; rnd ] ->
      check Alcotest.string "policies sorted" "lru" lru.Decision.ev_policy;
      check Alcotest.int "lru evictions" 2 lru.Decision.ev_evictions;
      check Alcotest.int "regret blamed on lru" 1 lru.Decision.ev_regrets;
      check Alcotest.string "random tracked too" "random" rnd.Decision.ev_policy;
      check Alcotest.int "random regret-free" 0 rnd.Decision.ev_regrets
  | l -> Alcotest.failf "expected 2 eviction policies, got %d" (List.length l)

let test_cleaner_write_amp () =
  with_obs @@ fun () ->
  Decision.note_cleaned ~policy:"cost_benefit" ~segments:2 ~bytes_moved:1000
    ~bytes_reclaimed:4000;
  Decision.note_cleaned ~policy:"cost_benefit" ~segments:1 ~bytes_moved:500
    ~bytes_reclaimed:2000;
  Decision.note_cleaned ~policy:"greedy" ~segments:1 ~bytes_moved:0 ~bytes_reclaimed:0;
  match (get_sli ()).Decision.by_clean_policy with
  | [ cb; gr ] ->
      check Alcotest.string "sorted by policy" "cost_benefit" cb.Decision.cl_policy;
      check Alcotest.int "passes accumulate" 2 cb.Decision.cl_passes;
      check Alcotest.int "segments accumulate" 3 cb.Decision.cl_segments;
      check (Alcotest.float 1e-9) "write-amp = copied/reclaimed" 0.25
        cb.Decision.cl_write_amp;
      check (Alcotest.float 0.0) "zero reclaimed gives 0, not nan" 0.0
        gr.Decision.cl_write_amp
  | l -> Alcotest.failf "expected 2 clean policies, got %d" (List.length l)

(* --- Shadows --- *)

let test_shadow_parse () =
  let spec = Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (Shadow.spec_name s)) ( = ) in
  let ok = Alcotest.(result (list spec) string) in
  check ok "plus-separated list"
    (Ok [ Shadow.Stp (2.0, 1.0); Shadow.Lru ])
    (Shadow.parse_many "stp:2,1+lru");
  check ok "all simple names"
    (Ok [ Shadow.Greedy; Shadow.Cost_benefit; Shadow.Least_worthy ])
    (Shadow.parse_many "greedy+cost-benefit+least_worthy");
  check Alcotest.bool "bad name rejected" true
    (Result.is_error (Shadow.parse "fifo"));
  check Alcotest.bool "bad exponents rejected" true
    (Result.is_error (Shadow.parse "stp:a,b"));
  check Alcotest.bool "missing exponent rejected" true
    (Result.is_error (Shadow.parse "stp:2"));
  check Alcotest.bool "empty list rejected" true
    (Result.is_error (Shadow.parse_many "++"))

let feats ?(idle = 0.0) ?(size = 0) ?(util = 0.0) ?(age = 0.0) () =
  { Decision.idle; size; util; temp = 0.0; age }

let report_for name sh =
  match List.find_opt (fun r -> r.Shadow.r_name = name) (Shadow.reports sh) with
  | Some r -> r
  | None -> Alcotest.failf "no shadow report named %s" name

let test_shadow_counterfactual_demotion () =
  with_obs ~window:100.0 @@ fun () ->
  let sh = Shadow.create [ Shadow.Stp (1.0, 1.0); Shadow.Stp (0.0, 1.0) ] in
  Shadow.attach sh;
  (* A: long-idle small file; B: fresh big file. The real stp:1,1 pick
     is A (score 1000 vs 100); a pure-size stp:0,1 shadow prefers B. *)
  let a = Decision.candidate 1 ~score:1000.0 ~feats:(feats ~idle:100.0 ~size:10 ()) in
  let b = Decision.candidate 2 ~score:100.0 ~feats:(feats ~idle:1.0 ~size:100 ()) in
  Decision.emit ~now:0.0 ~site:Decision.Stp_rank ~policy:"stp:1,1" ~budget:1
    ~chosen:[ a ] ~rejected:[ b ] ();
  (* B is then read shortly after: only the disagreeing shadow pays *)
  Decision.touch_file ~now:20.0 2;
  let same = report_for "stp:1,1" sh and bysize = report_for "stp:0,1" sh in
  check Alcotest.int "both shadows saw the decision" 1 same.Shadow.r_decisions;
  check (Alcotest.float 1e-9) "agreeing shadow scores 1" 1.0 same.Shadow.r_agreement;
  check Alcotest.int "agreeing shadow: no recall" 0 same.Shadow.r_recalls;
  check (Alcotest.float 1e-9) "disagreeing shadow scores 0" 0.0 bysize.Shadow.r_agreement;
  check Alcotest.int "counterfactual demotion" 1 bysize.Shadow.r_demotions;
  check Alcotest.int "counterfactual recall" 1 bysize.Shadow.r_recalls;
  check Alcotest.int "counterfactual recalled bytes" 100 bysize.Shadow.r_recalled_bytes

let test_shadow_counterfactual_eviction () =
  with_obs ~window:100.0 @@ fun () ->
  let sh = Shadow.create [ Shadow.Lru; Shadow.Least_worthy ] in
  Shadow.attach sh;
  (* real policy evicted line 1; line 2 is older-idle (lru's pick) and
     unworthy-but-young (least_worthy keys off util < 0.5 then age) *)
  let chosen = Decision.candidate 1 ~feats:(feats ~idle:5.0 ~util:1.0 ~age:50.0 ()) in
  let other = Decision.candidate 2 ~feats:(feats ~idle:80.0 ~util:0.0 ~age:10.0 ()) in
  Decision.emit ~now:0.0 ~site:Decision.Cache_evict ~policy:"random"
    ~chosen:[ chosen ] ~rejected:[ other ] ();
  (* line 2 gets accessed soon after: in both shadows' worlds it was
     evicted, so that access is a counterfactual demand fetch *)
  Decision.note_segment_access ~now:30.0 ~miss:false 2;
  List.iter
    (fun name ->
      let r = report_for name sh in
      check Alcotest.int (name ^ " eviction") 1 r.Shadow.r_evictions;
      check (Alcotest.float 1e-9) (name ^ " disagrees") 0.0 r.Shadow.r_agreement;
      check Alcotest.int (name ^ " regret") 1 r.Shadow.r_regrets)
    [ "lru"; "least_worthy" ]

let test_shadow_cleaner_costing () =
  with_obs @@ fun () ->
  let sh = Shadow.create [ Shadow.Greedy ] in
  Shadow.attach sh;
  (* greedy ranks by free bytes... here by recorded size = live bytes
     to copy; it would pick the emptier seg 7 (size 100) over seg 8 *)
  Decision.emit ~now:0.0 ~site:Decision.Clean_victims ~policy:"cost_benefit"
    ~chosen:[ Decision.candidate 8 ~feats:(feats ~size:900 ()) ]
    ~rejected:[ Decision.candidate 7 ~feats:(feats ~size:100 ()) ]
    ();
  let r = report_for "greedy" sh in
  check Alcotest.int "shadow copies its own victim's bytes" 100
    r.Shadow.r_clean_copied_bytes;
  check Alcotest.int "real copy cost recorded" 900 r.Shadow.r_clean_actual_bytes;
  check Alcotest.int "greedy re-made the cleaner decision" 1 r.Shadow.r_decisions

let suite =
  [
    ( "obs.heat",
      [
        Alcotest.test_case "half-life decay" `Quick test_heat_decay;
        Alcotest.test_case "capacity sweep" `Quick test_heat_capacity_sweep;
      ] );
    ( "obs.decision",
      [
        Alcotest.test_case "ring cap and dropped" `Quick test_ring_cap_and_dropped;
        Alcotest.test_case "rejected capped" `Quick test_rejected_capped;
        Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        Alcotest.test_case "ndjson shape" `Quick test_ndjson_shape;
      ] );
    ( "obs.sli",
      [
        Alcotest.test_case "migration mistake window" `Quick test_migration_mistake_window;
        Alcotest.test_case "file recall bytes" `Quick test_file_recall_bytes;
        Alcotest.test_case "eviction regret per policy" `Quick
          test_eviction_regret_per_policy;
        Alcotest.test_case "cleaner write amplification" `Quick test_cleaner_write_amp;
      ] );
    ( "obs.shadow",
      [
        Alcotest.test_case "spec parsing" `Quick test_shadow_parse;
        Alcotest.test_case "counterfactual demotion" `Quick
          test_shadow_counterfactual_demotion;
        Alcotest.test_case "counterfactual eviction" `Quick
          test_shadow_counterfactual_eviction;
        Alcotest.test_case "cleaner costing" `Quick test_shadow_cleaner_costing;
      ] );
  ]
