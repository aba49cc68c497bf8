(** Flight recorder: always-on ring of recent trace events + black-box
    dumps.

    {!start} keeps the last [ring] trace events in memory by installing
    its engine's {!Trace} in evict-oldest ring mode (or sharing a full
    tracer already installed on that engine, e.g. under
    [hlctl --trace]). When
    something goes wrong, {!dump} writes a self-contained post-mortem
    bundle directory: [trace.json] (Chrome trace of the last [window_s]
    simulated seconds), [metrics.json] (registry snapshot),
    [ledgers.json] (every open request's wait profile so far) and
    [manifest.json] (reason, window, active alerts, file list). The
    health plane ({!Obs.Health}) calls [dump] on every alert firing. *)

type t

val start : ?ring:int -> ?sample:int -> ?window_s:float -> ?dir:string -> Engine.t -> t
(** [ring] (default 64k events) bounds the in-memory ring; [sample]
    applies {!Trace} 1-in-N sampling on top; [window_s] (default 600)
    is how far back each dump reaches; [dir] (default ["blackbox"]) is
    the parent directory for bundles. If [engine] already has a tracer
    the recorder shares it ([ring]/[sample] are then ignored) and
    {!stop} leaves it installed. *)

val tracer : t -> Trace.t
val window_s : t -> float

val dump : ?metrics:Metrics.t -> ?alerts:string list -> reason:string -> t -> string
(** Writes one bundle and returns its directory path. Bundles are
    numbered in firing order ([001-<reason>], [002-...]); [reason] is
    sanitized for the filesystem. *)

val dumps : t -> string list
(** Bundle paths written so far, oldest first. *)

val stop : t -> unit
(** Uninstalls the engine's tracer iff this recorder installed it. *)
