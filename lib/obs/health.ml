(* Runtime health plane: SLO burn-rate engine + watchdogs.

   Objectives are declarative ("demand_fetch.p99 < 40s") and evaluated
   on a periodic scheduler tick over two sliding sim-time windows — a
   fast one (default 5 min) and a slow one (default 1 h). Each tick
   differences the cumulative instruments (histogram bucket counts,
   counters, ledger sums) into good/bad deltas, feeds both windows, and
   computes each window's *burn rate*: the fraction of the error budget
   the window is consuming, normalized so burn = 1.0 means "exactly at
   budget". An alert fires only when the fast AND slow windows both
   burn past the objective's factor — the SRE multi-window rule that
   keeps a short spike (fast window only) and a slowly-amortized old
   breach (slow window only) from paging. Alerts are deduplicated by a
   Firing latch with hysteresis: one alert per excursion, re-armed only
   after both windows fall well below the threshold.

   Watchdogs ride the same tick: a per-request deadline watchdog scans
   open ledgers and blame-ranks *why* a stuck request is late (distinct
   from the service layer's retry timeout, which deadlines one I/O
   attempt and recovers; this one observes and reports); a per-worker
   progress watchdog catches a drive/robot wedged beyond the fault
   retry horizon (workers heartbeat from the service layer); and a
   stall detector plus Engine drain watcher turn an impending deadlock
   into an alert with a flight-recorder dump instead of a silent drain.

   Like the other observability layers this lives in its engine's
   context: one health plane per engine, and every hook (worker
   heartbeats) resolves the plane of [Sim.Engine.current] and is a
   no-op when that engine has none. *)

(* ---------- sliding burn-rate windows ---------- *)

module Window = struct
  (* A ring of time buckets accumulating (good, bad) event weight.
     Bucket identity is the absolute index floor(now / bucket_s); a
     slot is lazily zeroed when a new epoch lands on it, so rotation
     costs nothing per tick and arbitrary time gaps are correct. *)
  type t = {
    bucket_s : float;
    slots : int;
    good : float array;
    bad : float array;
    epoch : int array; (* absolute bucket index held by each slot; -1 = empty *)
  }

  let create ~span_s ~bucket_s =
    if span_s <= 0.0 || bucket_s <= 0.0 then invalid_arg "Health.Window.create";
    let slots = max 1 (int_of_float (Float.round (span_s /. bucket_s))) in
    { bucket_s; slots; good = Array.make slots 0.0; bad = Array.make slots 0.0; epoch = Array.make slots (-1) }

  let span_s w = w.bucket_s *. float_of_int w.slots
  let index w now = int_of_float (Float.floor (now /. w.bucket_s))

  let add w ~now ~good ~bad =
    let idx = index w now in
    let s = idx mod w.slots in
    if w.epoch.(s) <> idx then begin
      w.epoch.(s) <- idx;
      w.good.(s) <- 0.0;
      w.bad.(s) <- 0.0
    end;
    w.good.(s) <- w.good.(s) +. good;
    w.bad.(s) <- w.bad.(s) +. bad

  (* Totals over the window ending at [now]: slots whose epoch fell out
     of [idx - slots + 1, idx] are stale and excluded. *)
  let totals w ~now =
    let idx = index w now in
    let lo = idx - w.slots + 1 in
    let g = ref 0.0 and b = ref 0.0 in
    for s = 0 to w.slots - 1 do
      let e = w.epoch.(s) in
      if e >= lo && e <= idx then begin
        g := !g +. w.good.(s);
        b := !b +. w.bad.(s)
      end
    done;
    (!g, !b)

  let bad_fraction w ~now =
    let g, b = totals w ~now in
    let total = g +. b in
    if total <= 0.0 then 0.0 else b /. total
end

(* ---------- objectives ---------- *)

type source =
  | Latency of { hist : string; q : float }
      (* bad = observations above the threshold (bucket-midpoint rule),
         budget = 1 - q: "p99 < T" tolerates 1% above T *)
  | Ratio of { bad : string list; good : string list }
      (* counters; value = bad / (bad + good), budget = threshold *)
  | Frac of { num : string; den : string }
      (* histogram sums; value = num_sum / den_sum, budget = threshold *)

type objective = {
  o_name : string;
  o_spec : string; (* the source line, for reports *)
  o_source : source;
  o_threshold : float;
  o_burn : float; (* firing factor: fire when both windows burn >= this *)
  o_fast_s : float;
  o_slow_s : float;
}

let budget_of o =
  match o.o_source with
  | Latency { q; _ } -> 1.0 -. q
  | Ratio _ | Frac _ -> o.o_threshold

(* ---------- SLO file parser ---------- *)

let hist_alias = function
  | "demand_fetch" -> "service.demand_fetch_latency_s"
  | "first_block" -> "service.first_block_latency_s"
  | "prefetch" -> "ledger.prefetch.e2e_s"
  | "writeout" -> "ledger.writeout.e2e_s"
  | s -> s

let parse_value s =
  let num v suffix = float_of_string_opt (String.sub v 0 (String.length v - String.length suffix)) in
  let open Option in
  if String.length s = 0 then None
  else if s.[String.length s - 1] = '%' then map (fun v -> v /. 100.0) (num s "%")
  else if String.length s > 2 && String.sub s (String.length s - 2) 2 = "ms" then
    map (fun v -> v /. 1000.0) (num s "ms")
  else if s.[String.length s - 1] = 's' then num s "s"
  else float_of_string_opt s

let ledger_cats = List.map Sim.Ledger.category_name Sim.Ledger.categories

(* metric grammar:
     error_rate                          failures per submitted request
     rate:<bad_counter>/<good_counter>   any counter ratio
     <hist>.p50|p90|p95|p99|p999         latency percentile (aliases:
                                         demand_fetch, first_block)
     <class>.<category>_frac             ledger wait-share of e2e *)
let parse_metric m =
  match m with
  | "error_rate" ->
      Ok
        (Ratio
           {
             bad = [ "service.io_failures" ];
             good =
               [
                 "service.demand_fetches_submitted";
                 "service.prefetches_submitted";
                 "service.writeouts_submitted";
               ];
           })
  | _ when String.length m > 5 && String.sub m 0 5 = "rate:" -> (
      let rest = String.sub m 5 (String.length m - 5) in
      match String.index_opt rest '/' with
      | Some i ->
          Ok
            (Ratio
               {
                 bad = [ String.sub rest 0 i ];
                 good = [ String.sub rest (i + 1) (String.length rest - i - 1) ];
               })
      | None -> Error (Printf.sprintf "rate: metric %S needs bad/good" m))
  | _ -> (
      match String.rindex_opt m '.' with
      | None -> Error (Printf.sprintf "unknown metric %S" m)
      | Some i -> (
          let base = String.sub m 0 i in
          let leaf = String.sub m (i + 1) (String.length m - i - 1) in
          let is_pq =
            String.length leaf >= 2
            && leaf.[0] = 'p'
            && String.for_all (function '0' .. '9' -> true | _ -> false)
                 (String.sub leaf 1 (String.length leaf - 1))
          in
          if is_pq then
            let digits = String.sub leaf 1 (String.length leaf - 1) in
            let q = float_of_string digits /. Float.pow 10.0 (float_of_int (String.length digits)) in
            if q <= 0.0 || q >= 1.0 then Error (Printf.sprintf "percentile %s outside (0,1)" leaf)
            else Ok (Latency { hist = hist_alias base; q })
          else if Filename.check_suffix leaf "_frac" then begin
            let cat = Filename.chop_suffix leaf "_frac" in
            if List.mem cat ledger_cats then
              Ok
                (Frac
                   {
                     num = Printf.sprintf "ledger.%s.%s_s" base cat;
                     den = Printf.sprintf "ledger.%s.e2e_s" base;
                   })
            else Error (Printf.sprintf "unknown ledger category %S" cat)
          end
          else Error (Printf.sprintf "unknown metric %S" m)))

let parse_line ~fast ~slow lineno line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "line %d: expected \"name: metric < value ...\"" lineno)
  | Some i -> (
      let name = String.trim (String.sub line 0 i) in
      let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      let words = String.split_on_char ' ' rest |> List.filter (fun w -> w <> "") in
      match words with
      | metric :: "<" :: value :: opts -> (
          match (parse_metric metric, parse_value value) with
          | Error e, _ -> Error (Printf.sprintf "line %d: %s" lineno e)
          | _, None -> Error (Printf.sprintf "line %d: bad threshold %S" lineno value)
          | Ok src, Some thr -> (
              let burn = ref 1.0 and fast_s = ref fast and slow_s = ref slow in
              let bad_opt = ref None in
              List.iter
                (fun opt ->
                  match String.index_opt opt '=' with
                  | Some j -> (
                      let k = String.sub opt 0 j in
                      let v = String.sub opt (j + 1) (String.length opt - j - 1) in
                      match (k, float_of_string_opt v) with
                      | "burn", Some f when f > 0.0 -> burn := f
                      | "fast", Some f when f > 0.0 -> fast_s := f
                      | "slow", Some f when f > 0.0 -> slow_s := f
                      | _ -> bad_opt := Some opt)
                  | None -> bad_opt := Some opt)
                opts;
              match !bad_opt with
              | Some o -> Error (Printf.sprintf "line %d: bad option %S" lineno o)
              | None ->
                  if thr <= 0.0 then Error (Printf.sprintf "line %d: threshold must be > 0" lineno)
                  else
                    Ok
                      (Some
                         {
                           o_name = name;
                           o_spec = rest;
                           o_source = src;
                           o_threshold = thr;
                           o_burn = !burn;
                           o_fast_s = !fast_s;
                           o_slow_s = !slow_s;
                         })))
      | _ -> Error (Printf.sprintf "line %d: expected \"metric < value [burn=N]\"" lineno))

let parse ?(fast = 300.0) ?(slow = 3600.0) text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
        in
        let line = String.trim line in
        if line = "" then go acc (lineno + 1) rest
        else
          match parse_line ~fast ~slow lineno line with
          | Error e -> Error e
          | Ok None -> go acc (lineno + 1) rest
          | Ok (Some o) -> go (o :: acc) (lineno + 1) rest)
  in
  go [] 1 lines

(* ---------- alerts ---------- *)

type alert = {
  a_kind : string; (* "slo" | "watchdog.request" | "watchdog.worker" | "deadlock" *)
  a_name : string;
  a_at : float;
  a_burn_fast : float;
  a_burn_slow : float;
  a_detail : string;
  mutable a_bundle : string option;
}

(* ---------- runtime state ---------- *)

type ostate = {
  obj : objective;
  fast : Window.t;
  slow : Window.t;
  mutable prev_good : float;
  mutable prev_bad : float;
  mutable firing : bool;
  mutable fired : int;
  mutable last_fast : float;
  mutable last_slow : float;
  mutable worst_slow : float;
  g_fast : Sim.Metrics.gauge;
  g_slow : Sim.Metrics.gauge;
  g_ok : Sim.Metrics.gauge;
}

type wstate = {
  mutable w_busy : bool;
  mutable w_since : float;
  mutable w_beat : float;
  mutable w_flagged : bool;
  mutable w_job : string;
}

type t = {
  engine : Sim.Engine.t;
  metrics : Sim.Metrics.t;
  objectives : ostate list;
  tick_s : float;
  hysteresis : float;
  deadline_s : float;
  horizon_s : float;
  quiet : bool;
  flight : Sim.Flight.t option;
  workers : (string, wstate) Hashtbl.t;
  flagged_requests : (int, unit) Hashtbl.t;
  c_alerts : Sim.Metrics.counter;
  mutable alerts : alert list; (* newest first *)
  mutable stopped : bool;
  mutable ticks : int;
  mutable last_retired : int;
  mutable stall_ticks : int;
  mutable deadlock_fired : bool;
  mutable tm : Sim.Engine.timer option;
}

let key : t option Sim.Engine.key = Sim.Engine.new_key (fun () -> None)
let installed () = Sim.Engine.get_current key
let enabled () = match installed () with None -> false | Some _ -> true

(* ---------- alert plumbing ---------- *)

let active_alert_labels t =
  List.filter_map
    (fun os ->
      if os.firing then Some (Printf.sprintf "%s (%s)" os.obj.o_name os.obj.o_spec) else None)
    t.objectives

let fire t ~kind ~name ~burn_fast ~burn_slow detail =
  let a =
    {
      a_kind = kind;
      a_name = name;
      a_at = Sim.Engine.now t.engine;
      a_burn_fast = burn_fast;
      a_burn_slow = burn_slow;
      a_detail = detail;
      a_bundle = None;
    }
  in
  t.alerts <- a :: t.alerts;
  Sim.Metrics.incr t.c_alerts;
  (match t.flight with
  | Some fl ->
      let labels = (Printf.sprintf "%s %s" kind name) :: active_alert_labels t in
      a.a_bundle <-
        Some (Sim.Flight.dump fl ~metrics:t.metrics ~alerts:labels ~reason:(kind ^ "-" ^ name))
  | None -> ());
  if not t.quiet then
    Printf.eprintf "[health] t=%.0fs ALERT %s %s: %s%s\n%!" a.a_at kind name detail
      (match a.a_bundle with Some p -> Printf.sprintf " (blackbox: %s)" p | None -> "")

(* ---------- objective evaluation ---------- *)

(* Cumulative (good, bad) weight for an objective since the start of the
   run; the tick differences consecutive values into window deltas. *)
let cumulative t os =
  match os.obj.o_source with
  | Latency { hist; _ } -> (
      match Sim.Metrics.find_histogram t.metrics hist with
      | None -> (0.0, 0.0)
      | Some h ->
          (* A bucket's observations count as bad when its geometric
             midpoint — the same representative the percentile estimator
             uses — exceeds the threshold. Underflow is always good. *)
          let thr = os.obj.o_threshold in
          let bad = ref 0 in
          for i = 0 to Sim.Metrics.nbuckets - 1 do
            let mid = sqrt (Sim.Metrics.bucket_lo h i *. Sim.Metrics.bucket_lo h (i + 1)) in
            if mid > thr then bad := !bad + Sim.Metrics.bucket_count h i
          done;
          let n = Sim.Metrics.observations h in
          (float_of_int (n - !bad), float_of_int !bad))
  | Ratio { bad; good } ->
      let sum names =
        List.fold_left
          (fun acc name -> acc + Sim.Metrics.count (Sim.Metrics.counter t.metrics name))
          0 names
      in
      (float_of_int (sum good), float_of_int (sum bad))
  | Frac { num; den } ->
      let s name =
        match Sim.Metrics.find_histogram t.metrics name with
        | None -> 0.0
        | Some h -> Sim.Metrics.hist_sum h
      in
      let n = s num and d = s den in
      (Float.max 0.0 (d -. n), n)

let eval_objective t now os =
  let cg, cb = cumulative t os in
  let dg = Float.max 0.0 (cg -. os.prev_good) and db = Float.max 0.0 (cb -. os.prev_bad) in
  os.prev_good <- cg;
  os.prev_bad <- cb;
  Window.add os.fast ~now ~good:dg ~bad:db;
  Window.add os.slow ~now ~good:dg ~bad:db;
  let budget = budget_of os.obj in
  let bf = Window.bad_fraction os.fast ~now /. budget in
  let bs = Window.bad_fraction os.slow ~now /. budget in
  os.last_fast <- bf;
  os.last_slow <- bs;
  if bs > os.worst_slow then os.worst_slow <- bs;
  Sim.Metrics.set os.g_fast bf;
  Sim.Metrics.set os.g_slow bs;
  if not os.firing then begin
    if bf >= os.obj.o_burn && bs >= os.obj.o_burn then begin
      os.firing <- true;
      os.fired <- os.fired + 1;
      fire t ~kind:"slo" ~name:os.obj.o_name ~burn_fast:bf ~burn_slow:bs
        (Printf.sprintf "%s: fast burn %.2fx, slow burn %.2fx (budget %.3g)" os.obj.o_spec bf bs
           budget)
    end
  end
  else if bf < os.obj.o_burn *. t.hysteresis && bs < os.obj.o_burn *. t.hysteresis then
    os.firing <- false;
  Sim.Metrics.set os.g_ok (if os.firing then 0.0 else 1.0)

(* ---------- watchdogs ---------- *)

let blame_line l now =
  let charges =
    List.filter_map
      (fun cat ->
        let c = Sim.Ledger.charged l cat in
        if c > 0.0 then Some (Sim.Ledger.category_name cat, c) else None)
      Sim.Ledger.categories
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let age = now -. Sim.Ledger.opened_at l in
  let top =
    match charges with
    | [] -> "no charges yet (still queued?)"
    | (cat, c) :: _ -> Printf.sprintf "%s %.1fs (%.0f%% of age)" cat c (100.0 *. c /. age)
  in
  Printf.sprintf "%s #%d open %.1fs: stuck on %s%s" (Sim.Ledger.kind l) (Sim.Ledger.id l) age top
    (match charges with
    | _ :: rest when rest <> [] ->
        "; then "
        ^ String.concat ", "
            (List.map (fun (cat, c) -> Printf.sprintf "%s %.1fs" cat c)
               (List.filteri (fun i _ -> i < 3) rest))
    | _ -> "")

let check_deadlines t now =
  if Sim.Ledger.enabled () then
    Sim.Ledger.iter_open (fun l ->
        let age = now -. Sim.Ledger.opened_at l in
        if age > t.deadline_s && not (Hashtbl.mem t.flagged_requests (Sim.Ledger.id l)) then begin
          Hashtbl.replace t.flagged_requests (Sim.Ledger.id l) ();
          fire t ~kind:"watchdog.request"
            ~name:(Printf.sprintf "%s-%d" (Sim.Ledger.kind l) (Sim.Ledger.id l))
            ~burn_fast:0.0 ~burn_slow:0.0 (blame_line l now)
        end)

let check_workers t now =
  Hashtbl.iter
    (fun name w ->
      if w.w_busy && (not w.w_flagged) && now -. w.w_beat > t.horizon_s then begin
        w.w_flagged <- true;
        fire t ~kind:"watchdog.worker" ~name ~burn_fast:0.0 ~burn_slow:0.0
          (Printf.sprintf "%s busy %.1fs on %s, no progress for %.1fs (horizon %.0fs)" name
             (now -. w.w_since) (if w.w_job = "" then "unknown job" else w.w_job) (now -. w.w_beat)
             t.horizon_s)
      end)
    t.workers

(* The tick itself keeps the event queue warm, so a wedged simulation
   would never drain and [run] would spin on health ticks forever. The
   deadlock signature is precise: from inside the tick callback, zero
   other events pending while processes sit blocked means nothing can
   ever wake them — only our own re-arm would keep time flowing. Report
   once, dump the black box, and stop re-arming so the queue drains. *)
let check_stall t =
  t.last_retired <- Sim.Engine.events_retired t.engine;
  if
    Sim.Engine.pending_events t.engine = 0
    && Sim.Engine.blocked_processes t.engine > 0
    && not t.deadlock_fired
  then begin
    t.deadlock_fired <- true;
    t.stall_ticks <- t.stall_ticks + 1;
    fire t ~kind:"deadlock" ~name:"engine" ~burn_fast:0.0 ~burn_slow:0.0
      (Printf.sprintf "only the health tick is keeping time alive; blocked: %s"
         (String.concat ", " (Sim.Engine.blocked_process_names t.engine)));
    t.stopped <- true
  end

let do_tick t =
  let now = Sim.Engine.now t.engine in
  t.ticks <- t.ticks + 1;
  List.iter (fun os -> eval_objective t now os) t.objectives;
  check_deadlines t now;
  check_workers t now;
  check_stall t

(* ---------- heartbeats (called from the service layer) ---------- *)

let worker_busy name job =
  match installed () with
  | None -> ()
  | Some t -> (
      let now = Sim.Engine.now t.engine in
      match Hashtbl.find t.workers name with
      | w ->
          w.w_busy <- true;
          w.w_since <- now;
          w.w_beat <- now;
          w.w_flagged <- false;
          w.w_job <- job
      | exception Not_found ->
          Hashtbl.replace t.workers name
            { w_busy = true; w_since = now; w_beat = now; w_flagged = false; w_job = job })

let worker_beat name =
  match installed () with
  | None -> ()
  | Some t -> (
      match Hashtbl.find t.workers name with
      | w ->
          w.w_beat <- Sim.Engine.now t.engine;
          w.w_flagged <- false
      | exception Not_found -> ())

let worker_idle name =
  match installed () with
  | None -> ()
  | Some t -> (
      match Hashtbl.find t.workers name with
      | w ->
          w.w_busy <- false;
          w.w_flagged <- false;
          w.w_job <- ""
      | exception Not_found -> ())

(* ---------- lifecycle ---------- *)

let install ?(tick_s = 30.0) ?(hysteresis = 0.5) ?(deadline_s = 900.0) ?(horizon_s = 900.0)
    ?(quiet = false) ?flight engine objectives =
  let metrics = Sim.Metrics.of_engine engine in
  let ostates =
    List.map
      (fun o ->
        {
          obj = o;
          fast = Window.create ~span_s:o.o_fast_s ~bucket_s:(Float.min tick_s (o.o_fast_s /. 10.0));
          slow = Window.create ~span_s:o.o_slow_s ~bucket_s:(Float.min tick_s (o.o_fast_s /. 10.0));
          prev_good = 0.0;
          prev_bad = 0.0;
          firing = false;
          fired = 0;
          last_fast = 0.0;
          last_slow = 0.0;
          worst_slow = 0.0;
          g_fast = Sim.Metrics.gauge metrics (Printf.sprintf "slo.%s.burn_fast" o.o_name);
          g_slow = Sim.Metrics.gauge metrics (Printf.sprintf "slo.%s.burn_slow" o.o_name);
          g_ok = Sim.Metrics.gauge metrics (Printf.sprintf "slo.%s.ok" o.o_name);
        })
      objectives
  in
  List.iter (fun os -> Sim.Metrics.set os.g_ok 1.0) ostates;
  let t =
    {
      engine;
      metrics;
      objectives = ostates;
      tick_s;
      hysteresis;
      deadline_s;
      horizon_s;
      quiet;
      flight;
      workers = Hashtbl.create 8;
      flagged_requests = Hashtbl.create 16;
      c_alerts = Sim.Metrics.counter metrics "health.alerts";
      alerts = [];
      stopped = false;
      ticks = 0;
      last_retired = Sim.Engine.events_retired engine;
      stall_ticks = 0;
      deadlock_fired = false;
      tm = None;
    }
  in
  let cb () =
    if not t.stopped then begin
      do_tick t;
      if not t.stopped then
        match t.tm with Some tm -> Sim.Engine.arm engine tm ~after:t.tick_s | None -> ()
    end
  in
  let tm = Sim.Engine.timer engine cb in
  t.tm <- Some tm;
  Sim.Engine.arm engine tm ~after:t.tick_s;
  (* A drained-while-blocked run is the one failure mode the tick can't
     see (time stops advancing). The engine calls this at most once. *)
  Sim.Engine.set_drain_watcher engine
    (Some
       (fun names ->
         if not t.deadlock_fired then begin
           t.deadlock_fired <- true;
           fire t ~kind:"deadlock" ~name:"engine" ~burn_fast:0.0 ~burn_slow:0.0
             (Printf.sprintf "event queue drained with %d blocked: %s" (List.length names)
                (String.concat ", " names))
         end));
  Sim.Engine.set engine key (Some t);
  t

let tick = do_tick

let stop t =
  if not t.stopped then begin
    do_tick t; (* closing evaluation at the final virtual time *)
    t.stopped <- true
  end;
  match Sim.Engine.get t.engine key with
  | Some cur when cur == t -> Sim.Engine.set t.engine key None
  | _ -> ()

let alerts t = List.rev t.alerts
let ticks t = t.ticks

(* ---------- reports ---------- *)

type report = {
  r_name : string;
  r_spec : string;
  r_value : float; (* cumulative observed value over the whole run *)
  r_threshold : float;
  r_burn_fast : float;
  r_burn_slow : float;
  r_worst_burn : float;
  r_alerts : int;
  r_ok : bool;
}

let report_of t os =
  let value =
    match os.obj.o_source with
    | Latency { hist; q } -> (
        match Sim.Metrics.find_histogram t.metrics hist with
        | Some h when Sim.Metrics.observations h > 0 -> Sim.Metrics.percentile h q
        | _ -> 0.0)
    | Ratio _ | Frac _ ->
        let total = os.prev_good +. os.prev_bad in
        if total <= 0.0 then 0.0 else os.prev_bad /. total
  in
  {
    r_name = os.obj.o_name;
    r_spec = os.obj.o_spec;
    r_value = value;
    r_threshold = os.obj.o_threshold;
    r_burn_fast = os.last_fast;
    r_burn_slow = os.last_slow;
    r_worst_burn = os.worst_slow;
    r_alerts = os.fired;
    r_ok = os.fired = 0;
  }

let compliance t = List.map (report_of t) t.objectives
let breached t = List.filter (fun r -> not r.r_ok) (compliance t)
