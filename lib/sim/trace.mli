(** Simulated-time tracing with Chrome trace-event export.

    A tracer buffers named spans and instant events stamped with the
    virtual clock and a {e track} — a named timeline row, usually a
    device ("disk:rz57", "hp6300:robot") or a simulator process
    ("hl-io-tert0"). {!export} renders the buffer as Chrome
    trace-event JSON, viewable in Perfetto ({:https://ui.perfetto.dev})
    or [chrome://tracing]; simulated seconds map to trace microseconds.

    A tracer belongs to one engine: {!start} installs it in that
    engine's context, and every instrumentation point in the stack
    ({!span}, {!instant}, ...) logs to the tracer of {!Engine.current}
    without plumbing. With no tracer installed there, all of them are
    no-ops, so instrumented code pays one slot load when tracing is
    off. When [?track] is omitted, events land on a track named after
    the running simulator process ({!Engine.current_process}). *)

type t

val start : ?limit:int -> ?sample:int -> ?ring:bool -> Engine.t -> t
(** Creates a tracer clocked by [engine]'s virtual time and installs it
    as [engine]'s tracer. [limit] (default 2M) bounds the number of
    buffered events; beyond it events are counted in {!dropped} rather
    than stored. [sample] (default 1 = record everything) keeps 1 in
    [sample] of the high-volume event kinds — spans, instants,
    counters — for long runs where full tracing is too heavy; async
    lifecycles are always recorded so no end is orphaned. [ring]
    (default false) turns the buffer into a flight-recorder ring: at
    capacity the {e oldest} events are evicted (counted in {!evicted},
    not {!dropped}) so the buffer always holds the most recent [limit]
    events. Eviction is amortized — the buffer briefly holds up to
    [2*limit] events between truncations. *)

val stop : unit -> unit
(** Uninstalls the current engine's tracer (the buffer survives for
    {!export}). *)

val uninstall : t -> unit
(** Uninstalls [t] from its engine if it is still installed there. *)

val current : unit -> t option
(** The tracer of {!Engine.current}. *)

val of_engine : Engine.t -> t option
val enabled : unit -> bool

val keep : unit -> bool
(** Hot-path sampling pre-check: [false] when tracing is off or the
    sampling counter throws the next high-volume event away, [true]
    when it will be recorded — in which case that event is
    {e pre-admitted} and the caller must emit exactly one
    span/instant/counter next. Guarding with [keep] instead of
    {!enabled} lets a per-event call site skip building its argument
    list for sampled-out events, which is what keeps an always-on
    flight-recorder ring affordable on paths that fire millions of
    times per run. A sampled-out call still counts toward
    [trace.dropped]. *)

val event_count : t -> int

val dropped : t -> int
(** Events dropped at the buffer limit. Every event a tracer does not
    record — those drops and sampled-out events alike (ring evictions
    were recorded, so they do not count) — also bumps the
    [trace.dropped] counter of its engine's registry
    ({!Metrics.of_engine}). *)

val evicted : t -> int
(** Events aged out of a [~ring:true] buffer; 0 otherwise. *)

val span : ?track:string -> ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and records a complete ("X") event covering
    its virtual duration. Spans from one simulator process nest
    properly, since processes are coroutines. Recorded even when [f]
    raises. *)

val instant : ?track:string -> ?cat:string -> ?args:(string * string) list -> string -> unit

val counter : track:string -> ?cat:string -> string -> float -> unit
(** A sampled numeric series ("C" event), e.g. a queue depth. *)

(** {1 Async lifecycles}

    Request lifecycles (enqueue → dispatch → phases → complete) cross
    processes, so they are recorded as async ("b"/"n"/"e") events keyed
    by an id. {!async_begin} allocates the id and remembers the
    name/category; the later points only need the id. *)

val async_begin : ?track:string -> ?cat:string -> ?args:(string * string) list -> string -> int
(** Returns the lifecycle id, or [-1] when tracing is off. *)

val async_instant : ?track:string -> ?args:(string * string) list -> int -> unit
val async_end : ?track:string -> ?args:(string * string) list -> int -> unit
(** No-ops for ids that are negative, unknown, or already ended. *)

val absorb : t -> offset:float -> t -> unit
(** [absorb dst ~offset src] appends [src]'s events into [dst] with
    [offset] added to their timestamps — used to concatenate runs from
    separate engines (each starting at virtual time 0) into one
    timeline. *)

val export : ?since:float -> t -> string
(** Chrome trace-event JSON (array format), events sorted by timestamp,
    tracks named via thread_name metadata. [since] keeps only events
    stamped at or after the given virtual time — the flight recorder's
    "last N seconds" cut. *)

val write_file : ?since:float -> t -> string -> unit
