(** The user-level service process and its I/O workers (paper §6.7).
    The service (dispatcher) process waits for kernel requests (demand
    fetch, segment write-out), manages cache-line allocation and
    ejection, and hands the device work to a worker pool: one tertiary
    worker per jukebox drive plus a cache-disk worker. Each transfer is
    split into its two device phases (tertiary read → cache-disk write
    for a fetch; the reverse for a write-out), so segment N's disk write
    overlaps segment N+1's tertiary read, demand fetches preempt
    prefetches, and write-outs batch per destination volume to amortize
    robot swaps. The dispatcher drains its mailbox into two queues —
    demand fetches and write-outs first, prefetches behind them.

    Each transfer has one implementation, chunked at
    [State.stream_chunk_blocks]. A fetch reads through one call and
    [State.streaming_fetch] only decides whether readers see each chunk
    as it lands or the whole segment after the cache-disk write (then
    read as one chunk). A write-out is a producer (the cache-disk read)
    and a consumer (the tertiary write) sharing a buffer behind a
    written-prefix watermark: the producer owns the write-out and its
    ledger until its first chunk lands, then queues the consumer and
    hands both over. One chunk of [seg_blocks] — WORM volumes, [Serial]
    mode, or [stream_chunk_blocks = seg_blocks] — is the blocking
    read-then-write.

    [State.io_mode] sets the dispatcher's admission window; both modes
    run this one scheduler. [Pipelined] never blocks the dispatcher on
    a transfer. [Serial] admits one request and waits for it to settle
    (a fetch landed or failed; a write-out on the media or failed)
    before taking the next: the paper's measured one-request-at-a-time
    configuration, the baseline the Table 4 "overlapped" column and
    the pipeline bench compare against. In [Serial] a prefetch that
    cannot get a cache line is cancelled, as in [Pipelined], and the
    idle-readahead daemon runs too. *)

val spawn : State.t -> unit -> unit
(** Starts the service/I/O machinery; returns a shutdown function (the
    processes exit after finishing the current request). *)

val eject : State.t -> Seg_cache.line -> unit
(** Synchronously discards a cache line (must be evictable), returning
    its disk segment to the clean pool. *)

val choose_victim : State.t -> Seg_cache.line option
(** Policy victim selection with decision observability: when the
    observatory is installed, emits a [Cache_evict] decision record
    (victim plus passed-over candidates) and registers the victim for
    the eviction-regret SLI. Zero-cost when the observatory is off. *)

val eject_idle : State.t -> keep:int -> int
(** Migrator-style housekeeping: evicts least-valuable lines until at
    most [keep] remain. Returns the number ejected. *)

type ticket

val request_writeout : State.t -> Seg_cache.line -> ticket
(** Queues a freshly assembled staging segment for copy-out; the
    service/I/O processes drain the queue asynchronously. A shutdown
    settles every ticket, including one whose producer is mid-read:
    in either I/O mode it fails with "service stopped" at the
    handoff. *)

val await : ticket -> State.writeout_status
(** Blocks until the copy (including any end-of-medium re-homing)
    completes. *)

val allocate_cache_line : ?staging:bool -> State.t -> int
(** Internal: obtain a disk segment for use as a cache line, ejecting a
    victim if the pool is exhausted. Staging allocations (the migrator)
    may dig past the cleaner's reserve. *)
