open State

let now st = Sim.Engine.now st.engine

let eject st line =
  if line.Seg_cache.pins > 0 then invalid_arg "Service.eject: line pinned";
  (match line.Seg_cache.state with
  | Seg_cache.Resident | Seg_cache.Staged_clean | Seg_cache.Partial -> ()
  | Seg_cache.Fetching | Seg_cache.Staging ->
      invalid_arg "Service.eject: line not evictable");
  Hl_log.Log.debug (fun m ->
      m "eject cache line: tseg %d (disk seg %d)" line.Seg_cache.tindex line.Seg_cache.disk_seg);
  if line.Seg_cache.prefetched then begin
    if line.Seg_cache.idle_hint then
      (* idle-daemon speculation is scored on its own: it must never
         drag down the adaptive readahead's accuracy *)
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.evicted_unused")
    else begin
      (* the hint never paid off: the readahead policy hears about it *)
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "prefetch.evicted_unused");
      st.on_prefetch_wasted line.Seg_cache.tindex
    end
  end;
  Seg_cache.remove st.cache line;
  Seg_cache.note_eviction st.cache;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.evictions");
  Sim.Trace.instant ~track:"service" ~cat:"cache" "evict"
    ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ];
  if line.Seg_cache.disk_seg >= 0 then
    (* fires the segments_freed hook, waking allocation waiters *)
    Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg

(* Victim selection with the decision observatory looking over its
   shoulder: every policy-chosen eviction (as opposed to a deliberate
   eject, e.g. [Hl.eject_tertiary_copies]) emits a Cache_evict record —
   the victim plus the candidates passed over, with idle/worthiness/
   heat features — and registers for the eviction-regret SLI. *)
let choose_victim st =
  match Seg_cache.choose_victim st.cache with
  | None -> None
  | Some victim ->
      if Obs.Decision.enabled () then begin
        let now = now st in
        let pol = Seg_cache.policy_name st.cache in
        let cand (l : Seg_cache.line) =
          Obs.Decision.candidate l.Seg_cache.tindex
            ~feats:
              {
                Obs.Decision.idle = Float.max 0.0 (now -. l.Seg_cache.last_use);
                size = 0;
                (* util doubles as the re-reference (worthiness) bit *)
                util = (if l.Seg_cache.worthy then 1.0 else 0.0);
                temp = Obs.Decision.segment_temp ~now l.Seg_cache.tindex;
                age = Float.max 0.0 (now -. l.Seg_cache.fetched_at);
              }
        in
        let rejected =
          Seg_cache.lines st.cache
          |> List.filter (fun l -> l != victim && Seg_cache.evictable l)
          |> List.map cand
        in
        Obs.Decision.emit ~now ~site:Obs.Decision.Cache_evict ~policy:pol
          ~chosen:[ cand victim ] ~rejected ();
        Obs.Decision.note_evicted ~now ~policy:pol victim.Seg_cache.tindex
      end;
      Some victim

let eject_idle st ~keep =
  let ejected = ref 0 in
  let rec go () =
    if Seg_cache.length st.cache > keep then
      match choose_victim st with
      | Some victim ->
          eject st victim;
          incr ejected;
          go ()
      | None -> ()
  in
  go ();
  !ejected

(* One allocation attempt: evict past the cap or a victim if needed,
   but never wait. *)
let try_allocate ?(staging = false) st =
  let fsys = fs st in
  let cap = Seg_cache.max_lines st.cache in
  if Seg_cache.length st.cache > cap then
    Option.iter (eject st) (choose_victim st);
  match Lfs.Fs.alloc_clean_segment fsys ~for_cache:(not staging) with
  | Some seg -> Some seg
  | None -> (
      match choose_victim st with
      | Some victim ->
          eject st victim;
          Lfs.Fs.alloc_clean_segment fsys ~for_cache:(not staging)
      | None -> None)

(* Obtain a disk segment to serve as a cache line, ejecting victims when
   the clean pool or the static cache cap is exhausted. [staging] lines
   (migration) may dig past the cleaner's reserve. When everything is
   pinned or in flight, sleep on [cache_progress] — signalled by
   evictions, pin releases, segment frees and transfer completions —
   instead of polling the simulation clock. *)
let allocate_cache_line ?(staging = false) st =
  let fsys = fs st in
  let cap = Seg_cache.max_lines st.cache in
  let rec go waits =
    if waits > 100000 then failwith "Service: no cache line obtainable";
    if Seg_cache.length st.cache > cap then begin
      match choose_victim st with
      | Some victim ->
          eject st victim;
          go waits
      | None ->
          Sim.Condvar.wait st.cache_progress;
          go (waits + 1)
    end
    else
      match Lfs.Fs.alloc_clean_segment fsys ~for_cache:(not staging) with
      | Some seg -> seg
      | None -> (
          match choose_victim st with
          | Some victim ->
              eject st victim;
              go waits
          | None ->
              (* everything pinned or staging: wait for progress *)
              Sim.Condvar.wait st.cache_progress;
              go (waits + 1))
  in
  go 0

(* ---------- transfer phases ---------- *)

(* Every fetch and write-out is two phases on two different devices:

     fetch:     tertiary read  (jukebox drive)  ->  cache-disk write
     write-out: cache-disk read                 ->  tertiary write

   The phases are instrumented separately so the Table 4 breakdown can
   also report how much of the busy time was overlapped: [io_*_time] are
   per-phase busy sums, [io_union_time] is the wall time during which at
   least one phase was in flight. Overlap factor = busy / union. *)

let phase_begin st =
  if st.io_active = 0 then st.io_busy_since <- now st;
  st.io_active <- st.io_active + 1

let phase_end st phase t0 =
  let dt = now st -. t0 in
  (match phase with
  | `Tertiary ->
      st.io_tertiary_time <- st.io_tertiary_time +. dt;
      Sim.Metrics.observe (Sim.Metrics.histogram st.metrics "io.tertiary_phase_s") dt
  | `Disk ->
      st.io_disk_time <- st.io_disk_time +. dt;
      Sim.Metrics.observe (Sim.Metrics.histogram st.metrics "io.disk_phase_s") dt);
  st.io_active <- st.io_active - 1;
  if st.io_active = 0 then
    st.io_union_time <- st.io_union_time +. (now st -. st.io_busy_since)

(* The write-out twin of the busy/union accounting above, tracking only
   the two phases of write-outs: with the blocking pipeline the staging
   read and the tertiary write of one segment serialize, so
   (disk + tertiary) / union sits at 1.0; the streaming pipeline runs
   them concurrently and pushes the ratio toward 2.0. *)
let wo_phase_begin st =
  if st.wo_active = 0 then st.wo_busy_since <- now st;
  st.wo_active <- st.wo_active + 1

let wo_phase_end st phase t0 =
  let dt = now st -. t0 in
  (match phase with
  | `Tertiary -> st.wo_tertiary_time <- st.wo_tertiary_time +. dt
  | `Disk -> st.wo_disk_time <- st.wo_disk_time +. dt);
  st.wo_active <- st.wo_active - 1;
  if st.wo_active = 0 then
    st.wo_union_time <- st.wo_union_time +. (now st -. st.wo_busy_since)

(* End-of-medium: the staged segment must move to another volume, which
   changes every block's tertiary address; re-aim the live pointers and
   re-key the cache line (paper §6.3's "the last segment is re-written
   onto the next volume"). *)
let rehome st line =
  let fsys = fs st in
  let old_tindex = line.Seg_cache.tindex in
  let manifest = Option.value ~default:[] (Hashtbl.find_opt st.manifests old_tindex) in
  let new_tindex = next_tseg st in
  let old_base = Addr_space.seg_base st.aspace old_tindex in
  let new_base = Addr_space.seg_base st.aspace new_tindex in
  let moved =
    List.filter_map
      (fun entry ->
        match entry with
        | Staged_block sb -> (
            match Lfs.Fs.get_inode fsys sb.sb_inum with
            | exception Not_found -> None
            | ino ->
                (* a block dirtied since staging will be re-written to the
                   disk log by the next flush; its staged copy is dead *)
                if
                  Lfs.Fs.lookup_addr fsys ino sb.sb_bkey = sb.sb_taddr
                  && not (Lfs.Bcache.is_dirty (Lfs.Fs.bcache fsys) (sb.sb_inum, sb.sb_bkey))
                then begin
                  let new_addr = new_base + (sb.sb_taddr - old_base) in
                  Lfs.Fs.repoint fsys ino sb.sb_bkey new_addr;
                  Some (Staged_block { sb with sb_taddr = new_addr })
                end
                else None)
        | Staged_inode_block { si_taddr; si_inums } ->
            let new_addr = new_base + (si_taddr - old_base) in
            let still =
              List.filter
                (fun inum ->
                  let e = Lfs.Imap.get (Lfs.Fs.imap fsys) inum in
                  if e.Lfs.Imap.addr = si_taddr then begin
                    Lfs.Fs.account fsys ~addr:si_taddr (-Lfs.Inode.isize);
                    Lfs.Fs.account fsys ~addr:new_addr Lfs.Inode.isize;
                    Lfs.Imap.set_addr (Lfs.Fs.imap fsys) inum new_addr;
                    true
                  end
                  else false)
                si_inums
            in
            if still = [] then None
            else Some (Staged_inode_block { si_taddr = new_addr; si_inums = still }))
      manifest
  in
  Hashtbl.remove st.manifests old_tindex;
  Hashtbl.replace st.manifests new_tindex moved;
  Lfs.Segusage.set_state st.tseg old_tindex Lfs.Segusage.Clean;
  Seg_cache.retag st.cache line new_tindex;
  if line.Seg_cache.disk_seg >= 0 then
    Lfs.Segusage.set_cache_tag (Lfs.Fs.seguse fsys) line.Seg_cache.disk_seg new_tindex;
  st.rehomes <- st.rehomes + 1

(* Choose the cheapest live copy of a tertiary segment: a replica on a
   currently-loaded volume beats the primary on an unloaded one
   (paper §5.4's "closest copy"). *)
let pick_source st tindex =
  let candidates =
    tindex :: Option.value ~default:[] (Hashtbl.find_opt st.replicas tindex)
  in
  let live t =
    (Lfs.Segusage.get st.tseg t).Lfs.Segusage.state <> Lfs.Segusage.Clean || t = tindex
  in
  let candidates = List.filter live candidates in
  let loaded t =
    Footprint.volume_loaded st.fp (fst (Addr_space.vol_seg_of_tindex st.aspace t))
  in
  match List.find_opt loaded candidates with
  | Some t -> t
  | None -> ( match candidates with t :: _ -> t | [] -> tindex)

type fetch_ctx = { f_line : Seg_cache.line; f_urgent : bool; f_enqueued : float }

(* Shared state of one write-out: the cache-disk producer fills the
   line's [wo_buf] front to back in [w_chunk]-block pieces, advancing
   the [w_read] watermark and broadcasting [w_avail]; the tertiary
   consumer's per-chunk [await] blocks until the watermark covers the
   chunk it is about to put on the media. A permanent disk-side failure
   after the handoff parks in [w_failed] — the consumer surfaces it at
   its next await, so the write-out fails exactly once, from the worker
   that owns its ledger. *)
type wo_ctx = {
  w_line : Seg_cache.line;
  w_status : writeout_status ref;
  w_done : Sim.Condvar.t;
  w_chunk : int;
      (** producer and consumer grain; [seg_blocks] makes the copy-out
          the paper's blocking read-then-write *)
  mutable w_read : int;  (** blocks of [wo_buf] holding real data *)
  w_avail : Sim.Condvar.t;
  mutable w_failed : string option;
}

(* One chunk per segment where streaming must not or cannot overlap:
   WORM media (a mid-segment fault retry would rewrite blocks already
   on the platter, which the volume rejects as an overwrite) and the
   [serial] baseline, which reads the whole segment before writing it,
   as the paper's one I/O process did. *)
let writeout_ctx st ~serial line status done_cv =
  let vol, _ = Addr_space.vol_seg_of_tindex st.aspace line.Seg_cache.tindex in
  let chunk =
    if serial || Footprint.media_kind st.fp vol = Device.Jukebox.Worm then seg_blocks st
    else max 1 st.stream_chunk_blocks
  in
  line.Seg_cache.wo_buf <- Some (new_image st);
  {
    w_line = line;
    w_status = status;
    w_done = done_cv;
    w_chunk = chunk;
    w_read = 0;
    w_avail = Sim.Condvar.create ();
    w_failed = None;
  }

(* ---------- fault handling ---------- *)

(* Run one device phase under the retry policy: an injected fault is
   retried with capped exponential backoff in sim-time, bounded by both
   the attempt cap and a per-request deadline on the engine clock.
   Permanent faults pass through here too — the jukebox excludes dead
   drives from arbitration, so retrying a failed tertiary phase lands on
   a sibling drive when one is alive (failover), and exhausts quickly
   into [Error] when none is. *)
let with_retries st ~what f =
  let deadline = now st +. st.retry.request_timeout in
  let rec go attempt backoff =
    match f () with
    | v -> Ok v
    | exception Sim.Fault.Injected d ->
        let msg = Sim.Fault.descriptor_to_string d in
        Hl_log.Log.debug (fun m -> m "%s: %s (attempt %d)" what msg attempt);
        if attempt >= st.retry.max_attempts then begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.io_failures");
          Error (Printf.sprintf "%s: %s (%d attempts)" what msg attempt)
        end
        else if now st +. backoff > deadline then begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.timeouts");
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.io_failures");
          Error (Printf.sprintf "%s: %s (request timeout)" what msg)
        end
        else begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.retries");
          Sim.Trace.instant ~track:"service" ~cat:"fault" "retry"
            ~args:[ ("what", what); ("attempt", string_of_int attempt) ];
          (* backoff is queueing blame: the request is parked, not moving *)
          Sim.Ledger.charged_active Sim.Ledger.Queue_wait (fun () -> Sim.Engine.delay backoff);
          go (attempt + 1) (Float.min (backoff *. 2.0) st.retry.backoff_cap)
        end
  in
  go 1 st.retry.backoff_base

(* A fetch that exhausted its retries. The line must not poison the
   cache: publish the reason and wake the waiters — they see [failed]
   and surface {!State.Io_error}.

   A streaming fetch may already have delivered a valid prefix into the
   line's image before the fault struck. That prefix is real data that
   crossed the tertiary bus; instead of discarding it, keep the line in
   the directory as [Partial]: the disk segment goes back to the clean
   pool (the prefix lives in memory), waiters and later readers inside
   the watermark are served from it, and a read past the watermark
   triggers a tail-only re-fetch (see {!Block_io.tertiary_read}). With
   nothing delivered the line leaves the directory as before — a later
   access re-fetches from scratch. *)
let fail_fetch st line msg =
  Hl_log.Log.info (fun m -> m "fetch of tseg %d failed: %s" line.Seg_cache.tindex msg);
  line.Seg_cache.failed <- Some msg;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.fetch_failures");
  Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id ~args:[ ("failed", msg) ];
  line.Seg_cache.span_id <- -1;
  Sim.Ledger.close line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  if line.Seg_cache.prefetched then
    if line.Seg_cache.idle_hint then
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.evicted_unused")
    else st.on_prefetch_wasted line.Seg_cache.tindex;
  if line.Seg_cache.disk_seg >= 0 then begin
    Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg;
    (* a released number must not stay on the line: a second failure
       would release it again *)
    line.Seg_cache.disk_seg <- -1
  end;
  if
    line.Seg_cache.valid_blocks > 0
    && line.Seg_cache.state = Seg_cache.Fetching
    && not st.stop_service
  then begin
    line.Seg_cache.state <- Seg_cache.Partial;
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.partial_lines")
  end
  else begin
    let prefix = line.Seg_cache.image in
    Seg_cache.remove st.cache line;
    (* [remove] detaches the image; re-attach it to the directory-less
       line so parked waiters below the watermark still drain with the
       data that really did arrive *)
    if line.Seg_cache.valid_blocks > 0 then line.Seg_cache.image <- prefix
  end;
  Sim.Condvar.broadcast line.Seg_cache.ready;
  note_progress st

(* A write-out that exhausted its retries: the staged line keeps the
   only copy (Staging lines are never evictable), so nothing is lost —
   the ticket reports [Failed] and the requester decides. Idempotent.
   [fail_writeout_request] settles a request that never got a context
   (failed at dispatch or drained from the mailbox). *)
let fail_writeout_request st line status done_cv msg =
  match !status with
  | Failed _ -> ()
  | _ ->
      Hl_log.Log.info (fun m -> m "write-out of tseg %d failed: %s" line.Seg_cache.tindex msg);
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.writeout_failures");
      status := Failed msg;
      Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id ~args:[ ("failed", msg) ];
      line.Seg_cache.span_id <- -1;
      Sim.Ledger.close line.Seg_cache.ledger;
      line.Seg_cache.ledger <- Sim.Ledger.none;
      note_progress st;
      Sim.Condvar.broadcast done_cv

(* Unsticks the producer and consumer: a producer stops at its next
   chunk and a consumer parked on [w_avail] sees the failure and exits
   its await. *)
let abort_stream ctx msg =
  if ctx.w_failed = None then ctx.w_failed <- Some msg;
  Sim.Condvar.broadcast ctx.w_avail

(* A half still running keeps its own handle on the buffer; the line
   lets go of it at once. *)
let fail_writeout st ctx msg =
  abort_stream ctx msg;
  ctx.w_line.Seg_cache.wo_buf <- None;
  fail_writeout_request st ctx.w_line ctx.w_status ctx.w_done msg

(* Bracket one device phase with the Table 4 busy-time accounting, on
   the failure path too — the device was busy right up to the fault. *)
let phased st phase f =
  let t0 = now st in
  phase_begin st;
  match f () with
  | v ->
      phase_end st phase t0;
      v
  | exception e ->
      phase_end st phase t0;
      raise e

(* Write-out phases feed both ledgers: the instance-wide Table 4
   overlap and the write-out-specific busy/union pair behind the
   [writeout_overlap] statistic. *)
let phased_wo st phase f =
  let t0 = now st in
  phase_begin st;
  wo_phase_begin st;
  let fin () =
    wo_phase_end st phase t0;
    phase_end st phase t0
  in
  match f () with
  | v ->
      fin ();
      v
  | exception e ->
      fin ();
      raise e

(* Fetch phase A (tertiary worker): read the segment image from the
   cheapest copy. The copy is re-chosen on every retry, so a replica on
   a healthy volume can stand in for a primary behind a dead drive.

   The image is attached to the line *before* the transfer and each
   chunk lands at its final offset in it, by reference: the image
   shares the volume's extents, so no segment bytes are copied. With
   [streaming_fetch] the [valid_blocks] watermark advances as each
   chunk crosses the bus, broadcasting [ready] so a waiter whose block
   offset just became valid unblocks immediately — the cache-disk
   landing and the rest of the segment are off its critical path. The watermark only moves when the delivered
   chunk extends the contiguous prefix, and never regresses across
   retries: segment data is deterministic (replicas are copies), so a
   retry re-delivers the same bytes. Without [streaming_fetch] the
   segment moves as one chunk and nothing is published before the
   landing (the paper's blocking fetch). *)
let fetch_read st ctx =
  let line = ctx.f_line in
  Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "tertiary-read") ];
  Sim.Ledger.with_active line.Seg_cache.ledger @@ fun () ->
  with_retries st ~what:"fetch:tertiary-read" (fun () ->
      let source = pick_source st line.Seg_cache.tindex in
      Hl_log.Log.debug (fun m ->
          m "fetch tseg %d (from copy %d) -> disk seg %d" line.Seg_cache.tindex source
            line.Seg_cache.disk_seg);
      let vol, seg = Addr_space.vol_seg_of_tindex st.aspace source in
      phased st `Tertiary (fun () ->
          Sim.Trace.span ~cat:"service" "fetch:tertiary-read"
            ~args:
              [ ("tindex", string_of_int line.Seg_cache.tindex); ("vol", string_of_int vol) ]
            (fun () ->
              let image =
                match line.Seg_cache.image with
                | Some img -> img (* retry: keep image and watermark *)
                | None ->
                    let img = new_image st in
                    line.Seg_cache.image <- Some img;
                    img
              in
              (* the stream starts at the line's watermark: zero for a
                 fresh fetch, partway through for the tail re-fetch of a
                 Partial line or a retry after a mid-stream fault — the
                 already-delivered prefix is never re-read *)
              let start = line.Seg_cache.valid_blocks in
              let streaming = st.streaming_fetch in
              if start < seg_blocks st then
                Footprint.read_seg_stream st.fp ~vol ~seg
                  ~chunk:(if streaming then st.stream_chunk_blocks else seg_blocks st)
                  ~off:start (Device.Blockstore.Store (image, 0))
                  (fun ~off ~blocks ->
                    if streaming then begin
                      Sim.Ledger.mark_first_block line.Seg_cache.ledger;
                      if Obs.Health.enabled () then
                        Obs.Health.worker_beat (Sim.Engine.current_name st.engine);
                      if off <= line.Seg_cache.valid_blocks then begin
                        line.Seg_cache.valid_blocks <-
                          max line.Seg_cache.valid_blocks (off + blocks);
                        Sim.Condvar.broadcast line.Seg_cache.ready
                      end
                    end);
              image)))

(* Readers of a just-fetched segment are served from its in-memory
   buffer instead of re-reading the cache disk the worker just wrote —
   single-block reads against a disk whose arm is also landing fetched
   segments would pay a seek + rotation each. Only the newest
   [pipeline width] buffers stay attached (the double buffers of §6.7);
   beyond that the disk copy serves. *)
let attach_image st line image =
  line.Seg_cache.image <- Some image;
  Queue.add line st.image_fifo;
  let depth = image_fifo_depth st in
  while Queue.length st.image_fifo > depth do
    (Queue.pop st.image_fifo).Seg_cache.image <- None
  done

(* Fetch phase B (cache-disk worker): land the image in the cache line
   by reference and publish it. *)
let fetch_write st ctx image =
  let line = ctx.f_line in
  match
    (* the whole landing phase is cache-disk blame, whatever the disk
       and bus instrumentation points would call it *)
    Sim.Ledger.with_active ~redirect:Sim.Ledger.Cache_disk_write line.Seg_cache.ledger
      (fun () ->
        with_retries st ~what:"fetch:disk-write" (fun () ->
            phased st `Disk (fun () ->
                Sim.Trace.span ~cat:"service" "fetch:disk-write"
                  ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ]
                  (fun () ->
                    Block_io.raw_write_cache_line st ~disk_seg:line.Seg_cache.disk_seg image))))
  with
  | Error _ as e -> e
  | Ok () ->
      attach_image st line image;
      line.Seg_cache.state <- Seg_cache.Resident;
      line.Seg_cache.valid_blocks <- seg_blocks st;
      line.Seg_cache.fetched_at <- now st;
      Seg_cache.touch st.cache line ~now:(now st);
      (* full-fetch completion latency — the streaming win shows up in
         service.first_block_latency_s (observed at the waiter), not
         here: the whole segment still costs the same transfer time *)
      if ctx.f_urgent then
        Sim.Metrics.observe
          (Sim.Metrics.histogram st.metrics "service.demand_fetch_latency_s")
          (now st -. ctx.f_enqueued);
      Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id;
      line.Seg_cache.span_id <- -1;
      (* blocking fetches deliver everything at once; idempotent for
         streaming ones, which marked at the first chunk *)
      Sim.Ledger.mark_first_block line.Seg_cache.ledger;
      Sim.Ledger.close line.Seg_cache.ledger;
      line.Seg_cache.ledger <- Sim.Ledger.none;
      Sim.Condvar.broadcast line.Seg_cache.ready;
      (* the line is evictable now: wake allocation waiters *)
      note_progress st;
      st.on_fetch line.Seg_cache.tindex;
      Ok ()

(* Write-out completion: publish the staged line as clean, settle the
   ticket, close the books. The whole segment is on the media, so the
   producer has read its last chunk and the consumer written it: the
   line lets go of the image. *)
let writeout_done st ctx =
  let line = ctx.w_line in
  line.Seg_cache.wo_buf <- None;
  line.Seg_cache.state <- Seg_cache.Staged_clean;
  st.writeouts <- st.writeouts + 1;
  (* the manifest existed for end-of-medium re-homing; the copy is
     safe now *)
  Hashtbl.remove st.manifests line.Seg_cache.tindex;
  (match !(ctx.w_status) with Rehomed _ -> () | _ -> ctx.w_status := Done);
  Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id;
  line.Seg_cache.span_id <- -1;
  Sim.Ledger.close line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  st.on_writeout line.Seg_cache.tindex;
  note_progress st;
  Sim.Condvar.broadcast ctx.w_done

(* Local abort of a tertiary write: the disk-side producer failed
   permanently, so the awaited watermark will never advance. *)
exception Stream_aborted of string

(* Write-out, disk side (the producer): lift the staged segment off the
   cache disk into the line's write-out image, by reference, front to
   back in [w_chunk] pieces, advancing the shared watermark after each
   chunk so the consumer can put it on the media while the next chunk
   is still under the disk arm.

   The producer owns the write-out and its ledger until the first chunk
   lands; then [handoff] passes both to the consumer (false if it could
   not, having failed the write-out itself). The rest of the read runs
   with no ledger active — it charges nobody, and its effect shows up as
   the stalls it removes from the consumer. A failure before the handoff
   fails the write-out here; after it, the failure parks in [w_failed]
   for the consumer to surface. A retry resumes from the watermark.
   With [w_chunk = seg_blocks] the first chunk is the whole segment and
   this is the blocking read-then-write. *)
let writeout_read st ctx ~handoff =
  let line = ctx.w_line in
  let buf = Option.get line.Seg_cache.wo_buf in
  let total = seg_blocks st in
  let read_upto upto =
    with_retries st ~what:"writeout:disk-read" (fun () ->
        phased_wo st `Disk (fun () ->
            Sim.Trace.span ~cat:"service" "writeout:disk-read"
              ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ]
              (fun () ->
                let base = disk_seg_base st line.Seg_cache.disk_seg in
                while ctx.w_read < upto && ctx.w_failed = None do
                  let n = min ctx.w_chunk (upto - ctx.w_read) in
                  st.disk.Lfs.Dev.read_view ~blk:(base + ctx.w_read) ~count:n
                    (Device.Blockstore.Store (buf, ctx.w_read));
                  ctx.w_read <- ctx.w_read + n;
                  Sim.Condvar.broadcast ctx.w_avail
                done)))
  in
  Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "disk-read") ];
  match
    Sim.Ledger.with_active line.Seg_cache.ledger (fun () -> read_upto (min ctx.w_chunk total))
  with
  | Error msg -> fail_writeout st ctx msg
  | Ok () -> (
      if handoff () && ctx.w_read < total then
        match read_upto total with Ok () -> () | Error msg -> abort_stream ctx msg)

(* Write-out, tertiary side (the consumer): the jukebox write's
   per-chunk [await] parks on the watermark, so the media transfer
   chases the staging-disk read through the segment with whatever lead
   the slower device allows. End-of-medium re-homes and restarts (the
   image is address-free — pointers live in the fs maps — and the
   watermark carries over); a whole-segment retry after a media fault
   re-awaits the already-read prefix instantly. Everything from here to
   the last block on the media is the write-out's tertiary phase, one
   category whatever the chunk. *)
let writeout_write st ctx =
  let line = ctx.w_line in
  let buf = Option.get line.Seg_cache.wo_buf in
  let rec attempt () =
    let vol, seg = Addr_space.vol_seg_of_tindex st.aspace line.Seg_cache.tindex in
    match
      with_retries st ~what:"writeout:tertiary-write" (fun () ->
          phased_wo st `Tertiary (fun () ->
              Sim.Trace.span ~cat:"service" "writeout:tertiary-write"
                ~args:
                  [ ("tindex", string_of_int line.Seg_cache.tindex); ("vol", string_of_int vol) ]
                (fun () ->
                  Footprint.write_seg_stream st.fp ~vol ~seg ~chunk:ctx.w_chunk
                    ~await:(fun ~off ~blocks ->
                      while ctx.w_read < off + blocks && ctx.w_failed = None do
                        (* the stall is part of the tertiary phase: the
                           drive is claimed and waiting on the producer *)
                        Sim.Condvar.wait ~charge:Sim.Ledger.Queue_wait ctx.w_avail
                      done;
                      match ctx.w_failed with
                      | Some msg -> raise (Stream_aborted msg)
                      | None -> ())
                    (Device.Blockstore.Store (buf, 0))
                    (fun ~off ~blocks ->
                      if Obs.Health.enabled () then
                        Obs.Health.worker_beat (Sim.Engine.current_name st.engine);
                      st.on_writeout_chunk line.Seg_cache.tindex (off + blocks)))))
    with
    | exception Stream_aborted msg -> Error msg
    | Error _ as e -> e
    | Ok Footprint.Written ->
        writeout_done st ctx;
        Ok ()
    | Ok Footprint.End_of_medium ->
        Hl_log.Log.info (fun m ->
            m "end of medium: re-homing staged segment (was tseg %d)" line.Seg_cache.tindex);
        rehome st line;
        Sim.Trace.async_instant line.Seg_cache.span_id
          ~args:[ ("phase", "rehome"); ("new_tindex", string_of_int line.Seg_cache.tindex) ];
        ctx.w_status := Rehomed line.Seg_cache.tindex;
        attempt ()
  in
  match
    Sim.Ledger.with_active ~redirect:Sim.Ledger.Tertiary_write line.Seg_cache.ledger attempt
  with
  | Ok () -> ()
  | Error msg -> fail_writeout st ctx msg

(* ---------- the pipelined worker pool ---------- *)

(* Tertiary-side work queues, one per volume. Demand-fetch reads
   preempt prefetch reads, which preempt write-out writes; within a
   class, oldest first (the sequence number). A worker *claims* the
   volume it serves so a second worker never queues up behind the same
   drive while another volume's work — and its drive — sit idle; the
   per-volume write-out queues also mean a worker drains one volume's
   write-out batch back-to-back, amortizing robot swaps. *)
(* Queue entries carry their push time, so the pop can charge the
   interval to the request's ledger as [Queue_wait]. *)
type tert_job =
  | T_fetch_read of fetch_ctx
  | T_writeout of wo_ctx
      (** queued by the producer once its first chunk landed; the rest
          arrives through the context's watermark *)

type vol_work = {
  vw_urgent : (int * float * fetch_ctx) Queue.t;
  vw_prefetch : (int * float * fetch_ctx) Queue.t;
  vw_wo : (float * wo_ctx) Queue.t;
  mutable vw_claimed : bool;
  vw_depth_name : string; (* "tertq.vol<N>.depth", formatted once *)
  mutable vw_depth_gauge : Sim.Metrics.gauge option; (* resolved on first use *)
}

type tertq = {
  tq_vols : (int, vol_work) Hashtbl.t;
  mutable tq_seq : int;
  tq_cv : Sim.Condvar.t;
}

let tq_create () = { tq_vols = Hashtbl.create 8; tq_seq = 0; tq_cv = Sim.Condvar.create () }

let tq_vol q vol =
  match Hashtbl.find_opt q.tq_vols vol with
  | Some vw -> vw
  | None ->
      let vw =
        {
          vw_urgent = Queue.create ();
          vw_prefetch = Queue.create ();
          vw_wo = Queue.create ();
          vw_claimed = false;
          vw_depth_name = Printf.sprintf "tertq.vol%d.depth" vol;
          vw_depth_gauge = None;
        }
      in
      Hashtbl.replace q.tq_vols vol vw;
      vw

(* queue under the primary copy's volume; a replica on a loaded volume
   may still be picked at read time (pick_source), which only makes the
   job cheaper than its queue slot assumed *)
let fetch_vol st ctx = fst (Addr_space.vol_seg_of_tindex st.aspace ctx.f_line.Seg_cache.tindex)

(* Per-volume queue depth, sampled at every push and pop: a gauge (with
   high-water mark) in the registry and a counter series in the trace. *)
let tq_note_depth st q vol =
  let vw = tq_vol q vol in
  let depth =
    Queue.length vw.vw_urgent + Queue.length vw.vw_prefetch + Queue.length vw.vw_wo
  in
  (* name formatted once per volume, gauge resolved once per volume:
     this runs on every push and pop *)
  let g =
    match vw.vw_depth_gauge with
    | Some g -> g
    | None ->
        let g = Sim.Metrics.gauge st.metrics vw.vw_depth_name in
        vw.vw_depth_gauge <- Some g;
        g
  in
  Sim.Metrics.set g (float_of_int depth);
  if Sim.Trace.enabled () then
    Sim.Trace.counter ~track:"tertq" ~cat:"service" vw.vw_depth_name (float_of_int depth)

(* Idle-readahead preemption: demand or write-out work arriving kicks
   every still-queued idle prefetch out of the tertiary queues — the
   daemon only speculates on drive time nobody else wants, and a queued
   hint already holds a cache line and a disk segment that real work may
   need. In-flight idle fetches (already claimed by a worker) finish on
   their own. *)
let preempt_idle st q =
  Hashtbl.iter
    (fun vol vw ->
      if
        Queue.fold
          (fun any (_, _, c) -> any || c.f_line.Seg_cache.idle_hint)
          false vw.vw_prefetch
      then begin
        let keep = Queue.create () in
        Queue.iter
          (fun ((_, _, ctx) as entry) ->
            let line = ctx.f_line in
            if line.Seg_cache.idle_hint then begin
              Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.preempted");
              Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id
                ~args:[ ("preempted", "1") ];
              line.Seg_cache.span_id <- -1;
              Sim.Ledger.drop line.Seg_cache.ledger;
              line.Seg_cache.ledger <- Sim.Ledger.none;
              if line.Seg_cache.disk_seg >= 0 then
                Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg;
              Seg_cache.remove st.cache line;
              Sim.Condvar.broadcast line.Seg_cache.ready
            end
            else Queue.add entry keep)
          vw.vw_prefetch;
        Queue.clear vw.vw_prefetch;
        Queue.transfer keep vw.vw_prefetch;
        tq_note_depth st q vol
      end)
    q.tq_vols

let tq_push_fetch st q ctx =
  if ctx.f_urgent then preempt_idle st q;
  let vol = fetch_vol st ctx in
  let vw = tq_vol q vol in
  let seq = q.tq_seq in
  q.tq_seq <- seq + 1;
  Queue.add (seq, now st, ctx) (if ctx.f_urgent then vw.vw_urgent else vw.vw_prefetch);
  tq_note_depth st q vol;
  Sim.Condvar.broadcast q.tq_cv

let tq_push_writeout st q ctx =
  preempt_idle st q;
  let vol, _ = Addr_space.vol_seg_of_tindex st.aspace ctx.w_line.Seg_cache.tindex in
  Queue.add (now st, ctx) (tq_vol q vol).vw_wo;
  tq_note_depth st q vol;
  Sim.Condvar.broadcast q.tq_cv

(* Pick work from an unclaimed volume: any volume's demand fetch beats
   any prefetch beats any write-out; fetch classes go oldest-first
   across volumes, write-outs prefer a volume already in a drive and
   then the deepest batch. Returns the claimed volume with the job. *)
let tq_take st q =
  let best_fetch sel =
    let best = ref None in
    Hashtbl.iter
      (fun vol vw ->
        if not vw.vw_claimed then
          match Queue.peek_opt (sel vw) with
          | Some (seq, _, _) -> (
              match !best with
              | Some (s, _) when s <= seq -> ()
              | _ -> best := Some (seq, vol))
          | None -> ())
      q.tq_vols;
    Option.map
      (fun (_, vol) ->
        let vw = Hashtbl.find q.tq_vols vol in
        let _, pushed, ctx = Queue.pop (sel vw) in
        Sim.Ledger.charge_since ctx.f_line.Seg_cache.ledger Sim.Ledger.Queue_wait pushed;
        (vol, T_fetch_read ctx))
      !best
  in
  let best_writeout () =
    let best = ref None in
    Hashtbl.iter
      (fun vol vw ->
        if (not vw.vw_claimed) && not (Queue.is_empty vw.vw_wo) then begin
          let score =
            (if Footprint.volume_loaded st.fp vol then 1_000_000 else 0)
            + Queue.length vw.vw_wo
          in
          match !best with
          | Some (s, _) when s >= score -> ()
          | _ -> best := Some (score, vol)
        end)
      q.tq_vols;
    Option.map
      (fun (_, vol) ->
        let vw = Hashtbl.find q.tq_vols vol in
        let pushed, ctx = Queue.pop vw.vw_wo in
        Sim.Ledger.charge_since ctx.w_line.Seg_cache.ledger Sim.Ledger.Queue_wait pushed;
        (vol, T_writeout ctx))
      !best
  in
  match best_fetch (fun vw -> vw.vw_urgent) with
  | Some r -> Some r
  | None -> (
      match best_fetch (fun vw -> vw.vw_prefetch) with
      | Some r -> Some r
      | None -> best_writeout ())

let rec tq_pop st q =
  if st.stop_service then None
  else
    match tq_take st q with
    | Some (vol, job) ->
        (tq_vol q vol).vw_claimed <- true;
        tq_note_depth st q vol;
        Some (vol, job)
    | None ->
        (* nothing to do: give the idle-readahead daemon a shot at the
           drive this worker is about to park *)
        Sim.Condvar.broadcast st.idle_kick;
        Sim.Condvar.wait q.tq_cv;
        tq_pop st q

let tq_release q vol =
  (tq_vol q vol).vw_claimed <- false;
  (* the volume may hold queued work only this claim was blocking *)
  Sim.Condvar.broadcast q.tq_cv

(* Cache-disk work queue: completing a demand fetch beats everything
   else; prefetch landings and write-out reads ride behind. *)
type disk_job =
  | D_fetch_write of fetch_ctx * Device.Blockstore.t
  | D_writeout of wo_ctx
      (** a write-out's producer half: fill the context's buffer chunk
          by chunk, advancing the shared watermark *)

type diskq = {
  dq_urgent : (float * disk_job) Queue.t;
  dq_normal : (float * disk_job) Queue.t;
  dq_cv : Sim.Condvar.t;
}

let dq_create () =
  { dq_urgent = Queue.create (); dq_normal = Queue.create (); dq_cv = Sim.Condvar.create () }

let dq_note_depth st q =
  let depth = Queue.length q.dq_urgent + Queue.length q.dq_normal in
  Sim.Metrics.set (Sim.Metrics.gauge st.metrics "diskq.depth") (float_of_int depth);
  if Sim.Trace.enabled () then
    Sim.Trace.counter ~track:"diskq" ~cat:"service" "diskq.depth" (float_of_int depth)

let dq_push st q ~urgent job =
  (if urgent then Queue.add (now st, job) q.dq_urgent else Queue.add (now st, job) q.dq_normal);
  dq_note_depth st q;
  Sim.Condvar.signal q.dq_cv

let dq_job_ledger = function
  | D_fetch_write (ctx, _) -> ctx.f_line.Seg_cache.ledger
  | D_writeout ctx -> ctx.w_line.Seg_cache.ledger

let rec dq_pop st q =
  if st.stop_service then None
  else
    let charge (pushed, job) =
      Sim.Ledger.charge_since (dq_job_ledger job) Sim.Ledger.Queue_wait pushed;
      dq_note_depth st q;
      Some job
    in
    match Queue.take_opt q.dq_urgent with
    | Some e -> charge e
    | None -> (
        match Queue.take_opt q.dq_normal with
        | Some e -> charge e
        | None ->
            Sim.Condvar.wait q.dq_cv;
            dq_pop st q)

(* A prefetch that cannot get a cache line is cancelled rather than
   queued: speculative work must never pile up in front of the
   allocator. A reader that piggybacked on the Fetching line re-checks
   and issues a demand fetch. *)
let cancel_prefetch st line =
  (* speculative work that never ran: discard the ledger, don't fold it *)
  Sim.Ledger.drop line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  Seg_cache.remove st.cache line;
  if line.Seg_cache.idle_hint then
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.preempted")
  else begin
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "prefetch.dropped");
    if line.Seg_cache.prefetched then st.on_prefetch_wasted line.Seg_cache.tindex
  end;
  Sim.Condvar.broadcast line.Seg_cache.ready

(* A fetch has settled once its line is no longer the one in flight:
   landed (no longer [Fetching]), or failed, which always takes the line
   off the disk segment it was dispatched to ([fail_fetch] resets
   [disk_seg]). A reader past the watermark may flip a [Partial] line
   straight back to [Fetching] for a tail re-fetch before this check
   runs, so leaving the segment is what counts. *)
let fetch_settled line seg =
  line.Seg_cache.state <> Seg_cache.Fetching || line.Seg_cache.disk_seg <> seg

(* A write-out has settled once its ticket failed or its line is no
   longer [Staging]. [Rehomed] is not enough: end-of-medium sets it and
   then writes the segment again on the next volume. *)
let writeout_settled line status =
  match !status with Failed _ -> true | _ -> line.Seg_cache.state <> Seg_cache.Staging

(* The service/I-O machinery: a dispatcher, one tertiary worker per
   jukebox drive, and a cache-disk worker. Segment N's cache-disk write
   overlaps segment N+1's tertiary read because the two phases run in
   different processes connected by a queue; each in-flight segment
   owns its buffer, and the number of buffers is bounded by the cache
   lines the dispatcher can allocate.

   [io_mode] sets the dispatcher's admission window. [Pipelined] (paper
   §11's "overlapping the phases") never blocks on a transfer. [Serial]
   admits one request and waits for it to settle before taking the
   next, and moves each write-out as one chunk: the paper's measured
   one-request-at-a-time configuration, whose phases Table 4 breaks
   down. *)
let spawn st =
  let serial = st.io_mode = Serial in
  let tq = tq_create () in
  let dq = dq_create () in
  (* tertiary workers: the jukebox model arbitrates drives and the robot,
     so one worker per drive keeps every drive busy without more policy *)
  let nworkers = max 1 (Footprint.ndrives st.fp) in
  for i = 0 to nworkers - 1 do
    let wname = Printf.sprintf "hl-io-tert%d" i in
    (* Heartbeats for the health plane's progress watchdog: busy at job
       claim, idle at completion; streamed chunks beat in between. A
       wedged drive (Fault hang) stops beating mid-job, which is
       exactly the signature the watchdog looks for. *)
    let busy vol what =
      if Obs.Health.enabled () then
        Obs.Health.worker_busy wname (Printf.sprintf "%s vol%d" what vol)
    in
    let idle () = if Obs.Health.enabled () then Obs.Health.worker_idle wname in
    Sim.Engine.spawn st.engine ~name:wname (fun () ->
        let rec loop () =
          match tq_pop st tq with
          | None -> idle ()
          | Some (vol, T_fetch_read ctx) ->
              busy vol "fetch";
              let result = fetch_read st ctx in
              tq_release tq vol;
              (match result with
              (* the sibling worker may be gone once [stop_service] is
                 set: fail the line rather than park it in a dead queue *)
              | Ok image when not st.stop_service ->
                  dq_push st dq ~urgent:ctx.f_urgent (D_fetch_write (ctx, image))
              | Ok _ -> fail_fetch st ctx.f_line "service stopped"
              | Error msg -> fail_fetch st ctx.f_line msg);
              idle ();
              loop ()
          | Some (vol, T_writeout ctx) ->
              busy vol "writeout";
              writeout_write st ctx;
              tq_release tq vol;
              idle ();
              loop ()
        in
        loop ())
  done;
  let dbusy what = if Obs.Health.enabled () then Obs.Health.worker_busy "hl-io-disk" what in
  let didle () = if Obs.Health.enabled () then Obs.Health.worker_idle "hl-io-disk" in
  Sim.Engine.spawn st.engine ~name:"hl-io-disk" (fun () ->
      let rec loop () =
        match dq_pop st dq with
        | None -> didle ()
        | Some (D_fetch_write (ctx, image)) ->
            dbusy "fetch-land";
            (match fetch_write st ctx image with
            | Ok () -> ()
            | Error msg -> fail_fetch st ctx.f_line msg);
            didle ();
            loop ()
        | Some (D_writeout ctx) ->
            dbusy "writeout-stage";
            writeout_read st ctx ~handoff:(fun () ->
                (* the tertiary workers may be gone once [stop_service]
                   is set: fail the write-out rather than park it in a
                   dead queue *)
                if st.stop_service then begin
                  fail_writeout st ctx "service stopped";
                  false
                end
                else begin
                  tq_push_writeout st tq ctx;
                  true
                end);
            didle ();
            loop ()
      in
      loop ());
  (* Cost-aware idle readahead: a tertiary worker about to park kicks
     this daemon, which — when enabled and only when no real work is
     queued anywhere — speculatively fetches the warmest uncached
     segment living on a currently-loaded volume ({!Obs.Heat} fed by
     every tertiary access). Loaded volumes only: the speculation costs
     idle drive time, never a robot swap. One hint per kick keeps the
     daemon self-pacing — the next kick arrives when a worker runs dry
     again — and any demand or write-out arrival sweeps still-queued
     hints back out ([preempt_idle]). *)
  Sim.Engine.spawn st.engine ~name:"hl-idle-ra" (fun () ->
      let queues_busy () =
        Hashtbl.fold
          (fun _ vw busy ->
            busy
            || not (Queue.is_empty vw.vw_urgent)
            || not (Queue.is_empty vw.vw_prefetch)
            || not (Queue.is_empty vw.vw_wo))
          tq.tq_vols false
      in
      let try_issue () =
        if
          st.idle_readahead
          && (not (queues_busy ()))
          && Seg_cache.length st.cache < Seg_cache.max_lines st.cache
        then begin
          let tnow = now st in
          let best = ref None in
          Lfs.Segusage.iter st.tseg (fun tindex e ->
              if
                e.Lfs.Segusage.state <> Lfs.Segusage.Clean
                && Seg_cache.find st.cache tindex = None
                && Footprint.volume_loaded st.fp
                     (fst (Addr_space.vol_seg_of_tindex st.aspace tindex))
              then begin
                let heat = Obs.Heat.get st.heat ~now:tnow tindex in
                if heat >= 0.05 then
                  match !best with
                  | Some (h, _) when h >= heat -> ()
                  | _ -> best := Some (heat, tindex)
              end);
          match !best with
          | None -> ()
          | Some (_, tindex) ->
              let line =
                Seg_cache.insert st.cache ~tindex ~disk_seg:(-1)
                  ~state:Seg_cache.Fetching ~now:tnow
              in
              line.Seg_cache.prefetched <- true;
              line.Seg_cache.idle_hint <- true;
              line.Seg_cache.span_id <-
                Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "idle-prefetch"
                  ~args:[ ("tindex", string_of_int tindex) ];
              line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"prefetch";
              Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.issued");
              State.submit st (Fetch { line; enqueued = tnow; is_prefetch = true })
        end
      in
      let rec loop () =
        Sim.Condvar.wait st.idle_kick;
        if not st.stop_service then begin
          try_issue ();
          loop ()
        end
      in
      loop ());
  (* demand fetches and write-outs overtake queued prefetches: a reader
     must never stall behind speculative work *)
  let urgent : request Queue.t = Queue.create () in
  let background : request Queue.t = Queue.create () in
  (* requests whose cache-line allocation failed; retried on progress *)
  let starved : (Seg_cache.line * float) Queue.t = Queue.create () in
  let poke_pending = ref false in
  (* the poker turns cache-progress events into service-queue messages,
     so the dispatcher never polls: it blocks in Mailbox.recv for work
     and, in [Serial] only, on [cache_progress] inside [admit] while the
     admitted request settles *)
  Sim.Engine.spawn st.engine ~name:"hl-progress" (fun () ->
      let rec loop () =
        Sim.Condvar.wait st.cache_progress;
        if not st.stop_service then begin
          if (not (Queue.is_empty starved)) && not !poke_pending then begin
            poke_pending := true;
            Sim.Mailbox.send st.service_mb Progress
          end;
          loop ()
        end
      in
      loop ());
  Sim.Engine.spawn st.engine ~name:"hl-service" (fun () ->
      (* [Serial]'s window of one: every way a request settles also
         broadcasts [cache_progress] *)
      let admit settled =
        if serial then
          while not (st.stop_service || settled ()) do
            Sim.Condvar.wait st.cache_progress
          done
      in
      (* allocate a disk segment and hand the fetch to the tertiary
         pool, returning it; None if no segment is obtainable right now.
         Never blocks: the caller owns the request again before [admit]
         waits, so a shutdown mid-wait finds it in no queue. *)
      let dispatch_fetch ~urgent line enqueued =
        match try_allocate st with
        | Some seg ->
            line.Seg_cache.disk_seg <- seg;
            Lfs.Segusage.set_cache_tag (Lfs.Fs.seguse (fs st)) seg line.Seg_cache.tindex;
            st.queue_time <- st.queue_time +. (now st -. enqueued);
            Sim.Ledger.charge_since line.Seg_cache.ledger Sim.Ledger.Queue_wait enqueued;
            Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "dispatch") ];
            tq_push_fetch st tq { f_line = line; f_urgent = urgent; f_enqueued = enqueued };
            Some seg
        | None -> None
      in
      let retry_starved () =
        let rec go () =
          match Queue.peek_opt starved with
          | Some (line, enqueued) when not st.stop_service -> (
              match dispatch_fetch ~urgent:true line enqueued with
              | Some seg ->
                  ignore (Queue.pop starved);
                  admit (fun () -> fetch_settled line seg);
                  go ()
              | None -> ())
          | _ -> ()
        in
        go ()
      in
      let serve = function
        | Fetch { line; _ } when st.stop_service -> fail_fetch st line "service stopped"
        | Fetch { line; enqueued; is_prefetch } -> (
            match dispatch_fetch ~urgent:(not is_prefetch) line enqueued with
            | Some seg -> admit (fun () -> fetch_settled line seg)
            | None ->
                if is_prefetch then cancel_prefetch st line
                else Queue.add (line, enqueued) starved)
        | Writeout { line; status; done_cv; _ } when st.stop_service ->
            fail_writeout_request st line status done_cv "service stopped"
        | Writeout { line; enqueued; status; done_cv } ->
            preempt_idle st tq;
            st.queue_time <- st.queue_time +. (now st -. enqueued);
            Sim.Ledger.charge_since line.Seg_cache.ledger Sim.Ledger.Queue_wait enqueued;
            Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "dispatch") ];
            (* the producer starts; it queues the tertiary half once
               its first chunk has landed *)
            dq_push st dq ~urgent:false (D_writeout (writeout_ctx st ~serial line status done_cv));
            admit (fun () -> writeout_settled line status)
        | Progress ->
            poke_pending := false;
            retry_starved ()
      in
      let classify = function
        | Fetch { is_prefetch = true; _ } as r -> Queue.add r background
        | r -> Queue.add r urgent
      in
      let rec loop () =
        if Queue.is_empty urgent && Queue.is_empty background then
          classify (Sim.Mailbox.recv st.service_mb);
        let rec drain () =
          match Sim.Mailbox.try_recv st.service_mb with
          | Some r ->
              classify r;
              drain ()
          | None -> ()
        in
        drain ();
        (match Queue.take_opt urgent with
        | Some r -> serve r
        | None -> Option.iter serve (Queue.take_opt background));
        if not st.stop_service then loop ()
      in
      loop ());
  fun () ->
    st.stop_service <- true;
    (* shutdown drain: fail everything that was queued but never started
       — a dead drive can leave work parked here forever — so every
       waiter wakes and [Engine.blocked_processes] drains to zero.
       In-flight transfers are not here (their worker popped them) and
       finish on their own: hangs are bounded delays. *)
    let abort = "service stopped" in
    Hashtbl.iter
      (fun _ vw ->
        Queue.iter (fun (_, _, ctx) -> fail_fetch st ctx.f_line abort) vw.vw_urgent;
        Queue.clear vw.vw_urgent;
        Queue.iter (fun (_, _, ctx) -> fail_fetch st ctx.f_line abort) vw.vw_prefetch;
        Queue.clear vw.vw_prefetch;
        Queue.iter (fun (_, ctx) -> fail_writeout st ctx abort) vw.vw_wo;
        Queue.clear vw.vw_wo)
      tq.tq_vols;
    let abort_disk_job (_, job) =
      match job with
      | D_fetch_write (ctx, _) -> fail_fetch st ctx.f_line abort
      | D_writeout ctx -> fail_writeout st ctx abort
    in
    Queue.iter abort_disk_job dq.dq_urgent;
    Queue.clear dq.dq_urgent;
    Queue.iter abort_disk_job dq.dq_normal;
    Queue.clear dq.dq_normal;
    Queue.iter (fun (line, _) -> fail_fetch st line abort) starved;
    Queue.clear starved;
    let abort_request = function
      | Fetch { line; _ } -> fail_fetch st line abort
      | Writeout { line; status; done_cv; _ } ->
          fail_writeout_request st line status done_cv abort
      | Progress -> ()
    in
    Queue.iter abort_request urgent;
    Queue.clear urgent;
    Queue.iter abort_request background;
    Queue.clear background;
    let rec drain_mb () =
      match Sim.Mailbox.try_recv st.service_mb with
      | Some r ->
          abort_request r;
          drain_mb ()
      | None -> ()
    in
    drain_mb ();
    (* wake every parked worker so it can exit: the dispatcher blocked in
       Mailbox.recv gets a message; in [Serial] it may instead wait in
       [admit], which the [cache_progress] broadcast wakes *)
    Sim.Mailbox.send st.service_mb Progress;
    Sim.Condvar.broadcast tq.tq_cv;
    Sim.Condvar.broadcast dq.dq_cv;
    Sim.Condvar.broadcast st.idle_kick;
    Sim.Condvar.broadcast st.cache_progress

type ticket = { status : writeout_status ref; done_cv : Sim.Condvar.t }

let request_writeout st line =
  let status = ref Pending in
  let done_cv = Sim.Condvar.create () in
  line.Seg_cache.span_id <-
    Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "writeout"
      ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ];
  line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"writeout";
  submit st (Writeout { line; enqueued = now st; status; done_cv });
  { status; done_cv }

let await ticket =
  while !(ticket.status) = Pending do
    Sim.Condvar.wait ticket.done_cv
  done;
  !(ticket.status)
