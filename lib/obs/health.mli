(** Runtime health plane: SLO burn-rate engine, watchdogs, alerting.

    Declarative service-level objectives are evaluated on a periodic
    scheduler tick over two sliding sim-time windows (fast, default
    5 min; slow, default 1 h). Each window's {e burn rate} is the
    fraction of the objective's error budget it is consuming,
    normalized so 1.0 = exactly at budget; an alert fires only when
    {e both} windows burn past the objective's factor (the SRE
    multi-window rule — a short spike moves only the fast window, an
    old breach only the slow one, and neither alone pages). A Firing
    latch with hysteresis deduplicates: one alert per excursion,
    re-armed only after both burns fall below [hysteresis * burn].

    The same tick runs the watchdogs: a per-request deadline watchdog
    scans open {!Sim.Ledger}s and blame-ranks why a stuck request is
    late; a per-worker progress watchdog (fed by {!worker_busy} /
    {!worker_beat} heartbeats from the service layer) catches a
    drive or robot wedged beyond the fault-retry horizon; and a stall
    detector plus {!Sim.Engine.set_drain_watcher} hook turn an
    impending deadlock into an alert instead of a silent drain.

    Every alert is dumped as a black-box bundle when a {!Sim.Flight}
    recorder is attached. Per-objective gauges
    [slo.<name>.burn_fast/burn_slow/ok] are exported through the
    metrics registry, so {!Sim.Snapshot} time series (and the soak
    harness CSV) carry the compliance timeline for free. *)

(** {1 Burn-rate window math} (exposed for tests) *)

module Window : sig
  type t

  val create : span_s:float -> bucket_s:float -> t
  val span_s : t -> float

  val add : t -> now:float -> good:float -> bad:float -> unit
  (** Accumulates event weight into the bucket holding [now]. Buckets
      rotate lazily: a slot whose epoch has fallen out of the window is
      zeroed on next touch, so arbitrary gaps in time are correct. *)

  val totals : t -> now:float -> float * float
  (** [(good, bad)] over the window ending at [now]. *)

  val bad_fraction : t -> now:float -> float
  (** [bad / (good + bad)], 0 when the window is empty. *)
end

(** {1 Objectives} *)

type source =
  | Latency of { hist : string; q : float }
      (** histogram percentile objective: bad = observations whose
          bucket midpoint exceeds the threshold; budget = [1 - q] *)
  | Ratio of { bad : string list; good : string list }
      (** counter ratio: value = bad / (bad + good); budget = threshold *)
  | Frac of { num : string; den : string }
      (** histogram-sum share (ledger wait fraction); budget = threshold *)

type objective = {
  o_name : string;
  o_spec : string;  (** the parsed source text, for reports *)
  o_source : source;
  o_threshold : float;
  o_burn : float;  (** firing factor; both windows must burn >= this *)
  o_fast_s : float;
  o_slow_s : float;
}

val budget_of : objective -> float

val parse : ?fast:float -> ?slow:float -> string -> (objective list, string) result
(** Parses an SLO file (see DESIGN.md "Runtime health plane"). One
    objective per line: [name: metric < value [burn=N] [fast=S]
    [slow=S]]; [#] comments. Metrics: [error_rate],
    [rate:<bad>/<good>] over counters, [<hist>.pNN] percentiles (with
    aliases [demand_fetch], [first_block]), and
    [<class>.<category>_frac] ledger wait shares. Values take [s],
    [ms] or [%] suffixes. *)

(** {1 Alerts} *)

type alert = {
  a_kind : string;  (** "slo", "watchdog.request", "watchdog.worker", "deadlock" *)
  a_name : string;
  a_at : float;
  a_burn_fast : float;
  a_burn_slow : float;
  a_detail : string;
  mutable a_bundle : string option;  (** black-box bundle path, if dumped *)
}

(** {1 Lifecycle} *)

type t

val install :
  ?tick_s:float ->
  ?hysteresis:float ->
  ?deadline_s:float ->
  ?horizon_s:float ->
  ?quiet:bool ->
  ?flight:Sim.Flight.t ->
  Sim.Engine.t ->
  objective list ->
  t
(** Installs the engine's health plane and starts its tick (default
    every 30 virtual seconds; stops re-arming after {!stop}). The
    objectives read, and the [slo.*]/[health.alerts] instruments land
    in, the engine's registry as it is at install
    ({!Sim.Metrics.of_engine}), so install after [Hl.mkfs]/[Hl.mount].
    [deadline_s] (default 900) flags requests older than that;
    [horizon_s] (default 900) flags busy workers with no heartbeat for
    that long — deliberately beyond the service layer's retry
    [request_timeout] (600 s), so the watchdog only speaks once fault
    recovery has had its chance. [quiet] suppresses the stderr alert
    line. With [flight], every alert dumps a black-box bundle. *)

val stop : t -> unit
(** Runs a closing evaluation at the current virtual time, stops the
    tick, and uninstalls it from its engine. The engine drain
    watcher stays armed: a deadlock discovered after [stop] is still
    reported. *)

val enabled : unit -> bool
val tick : t -> unit
(** One evaluation now — the unit tests' manual clock. *)

val ticks : t -> int
val alerts : t -> alert list
(** Oldest first. *)

(** {1 Worker heartbeats} (no-ops when the current engine has no
    health plane) *)

val worker_busy : string -> string -> unit
(** [worker_busy name job]: the worker claimed a job. *)

val worker_beat : string -> unit
(** The worker made observable progress (e.g. one streamed chunk). *)

val worker_idle : string -> unit

(** {1 Compliance reports} *)

type report = {
  r_name : string;
  r_spec : string;
  r_value : float;  (** cumulative observed value over the whole run *)
  r_threshold : float;
  r_burn_fast : float;
  r_burn_slow : float;
  r_worst_burn : float;  (** worst slow-window burn seen *)
  r_alerts : int;
  r_ok : bool;  (** no alert fired for this objective *)
}

val compliance : t -> report list
val breached : t -> report list
