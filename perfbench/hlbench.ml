(* The HighLight benchmark: three workloads built from a seed, end-to-end
   metrics on both clocks, every byte read back checked against a model
   of what was written, and a traced run that attributes the result to
   the layers.

   Clocks. Simulated metrics (latencies, MB per simulated second, every
   per-layer count) repeat exactly for a seed; the digest printed by each
   run hashes them. Host metrics are process CPU time ([Sys.time]) and
   GC counters. The benchmark's own work (building payloads, checking
   reads) is timed separately and left out of [host_s].

   A run repeats its workload (fresh world, set-up, measured phase) until
   the requested host seconds have passed and reports host medians;
   every repetition must reproduce the first one's digest.

   Layer spans are recorded here, around the calls the benchmark makes
   into each layer; the program itself is not instrumented further.
   The workloads' parameters are written out by [describe]
   (perfbench/workloads.json; the selftest checks that the file is
   current). *)

open Lfs
module Hl = Highlight.Hl
module State = Highlight.State
module Rng = Util.Rng

let block = 4096
let mib = 1048576.0

(* ---------- the paper's testbed (section 7) ---------- *)

(* CPU model calibrated against Table 2's FFS column (EXPERIMENTS.md) *)
let paper_cpu = { Param.syscall = 0.0004; per_block = 0.0007; copy_rate = 3.2 *. mib }

(* an 848 MB RZ57 partition in 1 MB segments, a 3.2 MB buffer cache *)
let paper_prm =
  {
    Param.block_size = block;
    seg_blocks = 256;
    nsegs = 832;
    max_inodes = 4096;
    bcache_blocks = 800;
    clean_reserve = 8;
    cpu = paper_cpu;
  }

(* ---------- expected contents ---------- *)

(* Expected contents. Block [b] of a write tagged [tag] starts with
   [header tag b] in 8 bytes and continues with the tag's 4 KB
   template. Every write gets a fresh tag, so a stale version, a block
   from elsewhere or a hole never matches. *)
let header tag b = Int64.logor (Int64.of_int tag) (Int64.shift_left (Int64.of_int b) 32)

(* the templates of recent tags, at most 2 MB of them *)
let templates : (int, Bytes.t) Hashtbl.t = Hashtbl.create 512

let template tag =
  match Hashtbl.find_opt templates tag with
  | Some t -> t
  | None ->
      if Hashtbl.length templates >= 512 then Hashtbl.reset templates;
      let t = Bytes.create block in
      for i = 0 to block - 1 do
        Bytes.unsafe_set t i (Char.unsafe_chr (((tag * 131) + (i * 31) + (i lsr 8)) land 0xff))
      done;
      Hashtbl.add templates tag t;
      t

(* The model of one file: the tag of each block (all sizes are whole
   blocks). [known] turns false when a write failed part-way, after
   which the file's contents are not checked. *)
type file = {
  path : string;
  mutable tags : int array;
  mutable known : bool;
}

let file_size f = Array.length f.tags * block

(* [off] and [len] are whole blocks *)
let payload tag ~off ~len =
  let data = Bytes.create len and t = template tag in
  for k = 0 to (len / block) - 1 do
    Bytes.blit t 0 data (k * block) block;
    Bytes.set_int64_le data (k * block) (header tag ((off / block) + k))
  done;
  data

let apply f tag ~off ~len =
  let nb = (off + len) / block in
  if nb > Array.length f.tags then begin
    let t = Array.make nb 0 in
    Array.blit f.tags 0 t 0 (Array.length f.tags);
    f.tags <- t
  end;
  for b = off / block to nb - 1 do
    f.tags.(b) <- tag
  done

(* [data] read at file offset [off] holds what the model expects;
   compared 8 bytes at a time *)
let matches f ~off data =
  let n = Bytes.length data in
  let rec go d =
    d >= n
    ||
    let pos = off + d in
    let b = pos / block and i0 = pos land (block - 1) in
    let stop = min n (d + block - i0) in
    let t = template f.tags.(b) in
    Bytes.set_int64_le t 0 (header f.tags.(b) b);
    let d = ref d and i = ref i0 and ok = ref true in
    while !ok && !d + 8 <= stop do
      if Bytes.get_int64_ne data !d <> Bytes.get_int64_ne t !i then ok := false;
      d := !d + 8;
      i := !i + 8
    done;
    while !ok && !d < stop do
      if Bytes.unsafe_get data !d <> Bytes.unsafe_get t !i then ok := false;
      incr d;
      incr i
    done;
    !ok && go stop
  in
  go 0

(* Host time the benchmark spends on its own bookkeeping (building
   payloads, checking reads), taken off the host metrics. It is read
   from the wall clock: a reading of CPU time is a system call (about
   half a microsecond on a 2-vCPU Xeon VM), too slow to take twice per
   read. *)
let client_cpu = ref 0.0

let client f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  client_cpu := !client_cpu +. (Unix.gettimeofday () -. t0);
  r

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---------- spans ---------- *)

type span = {
  sid : int;
  sname : string;
  req : int;
  parent : int;
  s0 : float;
  mutable s1 : float;
  h0 : float;
  mutable h1 : float;
}

type tracer = {
  teng : Sim.Engine.t;
  mutable spans : span list;
  mutable nspans : int;
  stacks : (string, span list) Hashtbl.t;  (** open spans per sim process *)
}

let tracer : tracer option ref = ref None

(* A span around a call into a layer. Its parent is the innermost open
   span of the same sim process; its request id is [req] or the
   parent's. *)
let span ?(req = -1) name f =
  match !tracer with
  | None -> f ()
  | Some t ->
      let proc = Sim.Engine.current_name t.teng in
      let stack = Option.value (Hashtbl.find_opt t.stacks proc) ~default:[] in
      let parent, preq = match stack with p :: _ -> (p.sid, p.req) | [] -> (-1, -1) in
      let s =
        {
          sid = t.nspans;
          sname = name;
          req = (if req >= 0 then req else preq);
          parent;
          s0 = Sim.Engine.now t.teng;
          s1 = nan;
          h0 = Unix.gettimeofday ();
          h1 = nan;
        }
      in
      t.nspans <- t.nspans + 1;
      t.spans <- s :: t.spans;
      Hashtbl.replace t.stacks proc (s :: stack);
      let finish () =
        s.s1 <- Sim.Engine.now t.teng;
        s.h1 <- Unix.gettimeofday ();
        Hashtbl.replace t.stacks proc stack
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* length of the union of intervals *)
let covered ivs =
  let ivs = List.sort compare ivs in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* per span: self time on both clocks = duration minus what its
   children cover *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ch = Hashtbl.find_all kids s.sid in
      let sim_self = s.s1 -. s.s0 -. covered (List.map (fun c -> (c.s0, c.s1)) ch) in
      let host_self = s.h1 -. s.h0 -. covered (List.map (fun c -> (c.h0, c.h1)) ch) in
      (s, sim_self, host_self))
    spans

let write_spans file spans =
  let oc = open_out file in
  List.iter
    (fun (s, sim_self, host_self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"req\": %d, \"parent\": %d, \"sim_start\": %.9f, \
         \"sim_end\": %.9f, \"host_start\": %.6f, \"host_end\": %.6f, \"sim_self\": %.9f, \
         \"host_self\": %.6f}\n"
        s.sid s.sname s.req s.parent s.s0 s.s1 s.h0 s.h1 sim_self host_self)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a.sid b.sid) spans);
  close_out oc

(* name -> (count, sim total, sim self, host total, host self) *)
let span_table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, ss, hs) ->
      let n, st, sf, ht, hf =
        Option.value (Hashtbl.find_opt tbl s.sname) ~default:(0, 0.0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.sname
        (n + 1, st +. (s.s1 -. s.s0), sf +. ss, ht +. (s.h1 -. s.h0), hf +. hs))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ---------- worlds ---------- *)

type world = {
  engine : Sim.Engine.t;
  hl : Hl.t;
  st : State.t;
  fs : Fs.t;
  disk : Device.Disk.t;
  jb : Device.Jukebox.t;
  fp : Footprint.t;
  mutable fetches_done : int;  (** fetch completions seen by [State.on_fetch] *)
  mutable writeouts_done : int;  (** write-out completions seen by [State.on_writeout] *)
  mutable next_tag : int;
}

let now w = Sim.Engine.now w.engine

let demand_fetches w =
  Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics w.hl) "service.demand_fetches_submitted")

let fresh_tag w =
  w.next_tag <- w.next_tag + 1;
  w.next_tag

(* The disk sits on its own SCSI bus, the jukebox on another. *)
let make_world engine ~prm ~disk_blocks ~jukebox ~seg_blocks ~segs_per_volume ~cache_segs =
  let disk =
    Device.Disk.create engine
      ~bus:(Device.Scsi_bus.create engine "scsi-disk")
      ?nblocks:disk_blocks Device.Disk.rz57 ~name:"rz57"
  in
  let jb = jukebox (Device.Scsi_bus.create engine "scsi-jukebox") in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_segs () in
  let w =
    {
      engine;
      hl;
      st = Hl.state hl;
      fs = Hl.fs hl;
      disk;
      jb;
      fp;
      fetches_done = 0;
      writeouts_done = 0;
      next_tag = 0;
    }
  in
  let on_fetch = w.st.State.on_fetch and on_writeout = w.st.State.on_writeout in
  w.st.State.on_fetch <-
    (fun t ->
      w.fetches_done <- w.fetches_done + 1;
      on_fetch t);
  w.st.State.on_writeout <-
    (fun t ->
      w.writeouts_done <- w.writeouts_done + 1;
      on_writeout t);
  w

(* RZ57 in front of an HP 6300 MO changer: 2 drives, 40 MB platters *)
let mo_world ?(nvolumes = 16) engine ~cache_segs =
  make_world engine ~prm:paper_prm ~disk_blocks:None ~seg_blocks:256 ~segs_per_volume:40
    ~cache_segs ~jukebox:(fun bus ->
      Device.Jukebox.create engine ~bus ~drives:2 ~nvolumes ~vol_capacity:10240
        ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "hp6300")

let create_file w f =
  let tag = fresh_tag w in
  let len = file_size f in
  let data = client (fun () -> payload tag ~off:0 ~len) in
  Hl.write_file w.hl f.path data;
  apply f tag ~off:0 ~len

(* ---------- measured-phase bookkeeping ---------- *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure reasons *)
  mutable lat : (string * float) list;  (** (op kind, latency) *)
  ops : Buffer.t;  (** every op's sim times: the digest's input *)
  mutable requested : int;  (** read bytes asked for *)
  mutable returned : int;  (** read bytes handed back *)
  mutable written : int;  (** user bytes written *)
  mutable max_lag : float;  (** how late an op started after it was due *)
  mutable in_flight : int;  (** timed ops begun and not yet returned *)
  mutable max_in_flight : int;
  mutable load_sim : float;  (** simulated length of the load, drain excluded *)
  mutable migr_calls : int;
  mutable migr_sim : float;
  mutable migr_bytes : int;
  mutable clean_calls : int;
  mutable clean_segs : int;
  mutable clean_sim : float;
  mutable clean_fetches : int;  (** demand fetches issued inside cleaner calls *)
  mutable problems : string list;  (** failed checks (not ops) *)
  mutable read_back : int;  (** files read back and checked after the load *)
}

let new_acc () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    lat = [];
    ops = Buffer.create 65536;
    requested = 0;
    returned = 0;
    written = 0;
    max_lag = 0.0;
    in_flight = 0;
    max_in_flight = 0;
    load_sim = 0.0;
    migr_calls = 0;
    migr_sim = 0.0;
    migr_bytes = 0;
    clean_calls = 0;
    clean_segs = 0;
    clean_sim = 0.0;
    clean_fetches = 0;
    problems = [];
    read_back = 0;
  }

(* [f] as one timed op, counted in flight while it runs *)
let in_flight acc f =
  acc.in_flight <- acc.in_flight + 1;
  acc.max_in_flight <- max acc.max_in_flight acc.in_flight;
  let r = f () in
  acc.in_flight <- acc.in_flight - 1;
  r

let note_error acc msg = if List.length acc.errors < 5 then acc.errors <- msg :: acc.errors

(* One timed op: [kind] names its latency, measured from [due]. *)
let record acc ~kind ~id ~due ~start ~fin =
  acc.lat <- (kind, fin -. due) :: acc.lat;
  acc.max_lag <- Float.max acc.max_lag (start -. due);
  let b = acc.ops in
  Buffer.add_string b kind;
  Buffer.add_int64_le b (Int64.of_int id);
  Buffer.add_int64_le b (Int64.bits_of_float due);
  Buffer.add_int64_le b (Int64.bits_of_float start);
  Buffer.add_int64_le b (Int64.bits_of_float fin)

(* A read through [Hl.read_file], checked against the model. *)
let read_checked w acc f ~off ~len =
  acc.requested <- acc.requested + len;
  match span "hl.read_file" (fun () -> Hl.read_file w.hl f.path ~off ~len ()) with
  | data ->
      acc.returned <- acc.returned + Bytes.length data;
      if client (fun () -> Bytes.length data = len && ((not f.known) || matches f ~off data))
      then true
      else begin
        note_error acc (Printf.sprintf "read mismatch: %s off %d len %d" f.path off len);
        false
      end
  | exception e ->
      note_error acc (Printf.sprintf "read %s: %s" f.path (Printexc.to_string e));
      false

(* A write through [Hl.write_file]; the model follows it. A write
   refused for lack of space counts as failed, and the cleaner runs as
   the soak harness does before the load goes on. *)
let write_checked w acc f ~off ~len =
  let tag = fresh_tag w in
  let data = client (fun () -> payload tag ~off ~len) in
  match span "hl.write_file" (fun () -> Hl.write_file w.hl f.path ~off data) with
  | () ->
      acc.written <- acc.written + len;
      apply f tag ~off ~len;
      true
  | exception e ->
      f.known <- false;
      note_error acc (Printf.sprintf "write %s: %s" f.path (Printexc.to_string e));
      if e = Fs.No_space then
        ignore (span "cleaner.clean_until" (fun () -> Cleaner.clean_until w.fs ~target_clean:4 ()));
      false

(* True while any fetch is queued or in flight, or a staged segment
   still waits for its copy-out. *)
let busy w =
  let b = ref false in
  Highlight.Seg_cache.iter (Hl.cache w.hl) (fun l ->
      match l.Highlight.Seg_cache.state with
      | Highlight.Seg_cache.Fetching | Highlight.Seg_cache.Staging -> b := true
      | _ -> ());
  !b

let drain w acc =
  let limit = now w +. 100000.0 in
  while busy w && now w < limit do
    Sim.Engine.delay 1.0
  done;
  if busy w then acc.problems <- "fetches or write-outs still in flight after the drain" :: acc.problems

(* Poisson arrival times from 0 at [rate] per simulated second *)
let poisson rng ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Rng.float rng 1.0 in
      t := !t -. (log (1.0 -. u) /. rate);
      !t)

(* File i has Zipf rank i + 1. The file set itself does not depend on
   the seed (sizes come from [scatter]), so seeds differ only in the
   request stream and the figures of different seeds are comparable. *)
let zipf_picker rng ~s n =
  let z = Rng.zipf ~s ~n in
  fun () -> Rng.zipf_draw rng z - 1

(* sizes in [lo, hi] scattered over the ranks *)
let scatter i ~lo ~hi = lo + (i * 37 mod (hi - lo + 1))

(* ---------- workloads ---------- *)

type workload = {
  wname : string;
  why : string;
  params : (string * string) list;  (** generator parameters, recorded in the workload file *)
  ops : int;  (** timed operations in the measured phase *)
  zero : string list;  (** per-layer counts its measured phase must leave at 0 *)
  setup : ops:int -> Sim.Engine.t -> Rng.t -> world * (acc -> unit) * (unit -> file list);
      (** builds and populates the world; returns the measured load of
          [ops] operations and the files to read back once it has run *)
}

(* recall: tertiary-resident files read back under an open loop *)
let recall_files = 48
let recall_cache_segs = 8
let recall_spread = 3
let recall_accesses = 8000

(* Arrivals per simulated second. At 0.005/s, where accesses barely
   overlap (0.02 in flight on average), an access keeps the jukebox busy
   6.65 s (footprint.busy_s over 4000 accesses, seed 1: demand fetches
   and the prefetches they trigger). 0.1/s offers 0.1 x 6.65 / 2 = 0.33
   of the 2 drives at that service time; concurrency adds robot swaps,
   and the runs measure the drives 0.55-0.7 busy (load.drive_occupancy),
   3 to 10 accesses in flight on average and about 60% of the demand
   fetches' time queued, depending on the seed. 0.18/s (0.6 nominal)
   saturates the changer: 90 in flight, access p99 over 7000 s. *)
let recall_rate = 0.1
let recall_service_s = 6.65
let recall_zipf = 0.8

let recall =
  {
    wname = "recall";
    why =
      "open-loop Zipf recalls of 48 files on 3 MO platters, 6x the cache lines, drives 0.55-0.7 busy: demand fetches, robot swaps, queueing, cache landings";
    params =
      [
        ("loop", "open, Poisson arrivals, one sim process per access");
        ("rate_per_sim_s", Printf.sprintf "%g" recall_rate);
        ( "rate_basis",
          Printf.sprintf
            "%g/s x %g s of jukebox time per access at low load / 2 drives = %.2f nominal; measured drive occupancy 0.55-0.7, 3 to 10 accesses in flight on average"
            recall_rate recall_service_s (recall_rate *. recall_service_s /. 2.0) );
        ("accesses", string_of_int recall_accesses);
        ("files", string_of_int recall_files);
        ("file_blocks", "16..128 (4 KB blocks), scattered over the ranks; data and indirect block each in their own 1 MB tertiary segment");
        ("zipf_s", Printf.sprintf "%g" recall_zipf);
        ("volumes_used", string_of_int recall_spread);
        ("cache_segs", string_of_int recall_cache_segs);
        ("file_set_vs_cache_segs", Printf.sprintf "%dx" (recall_files / recall_cache_segs));
        ("access", "4 KB at offset 0, then the rest of the file");
        ("devices", "RZ57 on its own SCSI bus; HP 6300 MO changer, 2 drives, 40 MB platters");
        ("caches_at_start", "segment cache and buffer cache empty; adaptive readahead on");
      ];
    ops = recall_accesses;
    zero = [];
    setup =
      (fun ~ops engine rng ->
        let w = mo_world engine ~cache_segs:recall_cache_segs in
        ignore (Dir.mkdir w.fs "/r");
        let files =
          Array.init recall_files (fun i ->
              {
                path = Printf.sprintf "/r/f%03d" i;
                tags = Array.make (scatter i ~lo:16 ~hi:128) 0;
                known = true;
              })
        in
        Array.iter (create_file w) files;
        Fs.checkpoint w.fs;
        Array.iteri
          (fun i f ->
            w.st.State.restrict_volume <- Some (i mod recall_spread);
            ignore
              (span "migrator.migrate_paths" (fun () ->
                   Highlight.Migrator.migrate_paths w.st ~with_inodes:false [ f.path ])))
          files;
        w.st.State.restrict_volume <- None;
        Hl.eject_tertiary_copies w.hl ~paths:(Array.to_list (Array.map (fun f -> f.path) files));
        Fs.drop_caches w.fs;
        ignore (Hl.set_prefetch_adaptive w.hl ());
        let pick = zipf_picker rng ~s:recall_zipf recall_files in
        let dues = poisson rng ~rate:recall_rate ops in
        let choice = Array.init ops (fun _ -> pick ()) in
        let load acc =
          let t0 = now w in
          let left = ref ops and all_done = Sim.Condvar.create () in
          Sim.Engine.spawn engine ~name:"generator" (fun () ->
              Array.iteri
                (fun id d ->
                  let due = t0 +. d in
                  Sim.Engine.delay (due -. now w);
                  Sim.Engine.spawn engine ~name:(Printf.sprintf "access-%d" id) (fun () ->
                      let f = files.(choice.(id)) in
                      let size = file_size f in
                      acc.attempted <- acc.attempted + 1;
                      let start = now w in
                      let ok1, ok2, fb =
                        in_flight acc (fun () ->
                            span ~req:id "access" (fun () ->
                                let ok1 = read_checked w acc f ~off:0 ~len:block in
                                let fb = now w in
                                let ok2 = read_checked w acc f ~off:block ~len:(size - block) in
                                (ok1, ok2, fb)))
                      in
                      let fin = now w in
                      acc.lat <- ("first_byte", fb -. due) :: acc.lat;
                      record acc ~kind:"access" ~id ~due ~start ~fin;
                      Buffer.add_string acc.ops "fb";
                      Buffer.add_int64_le acc.ops (Int64.of_int id);
                      Buffer.add_int64_le acc.ops (Int64.bits_of_float fb);
                      if not (ok1 && ok2) then acc.failed <- acc.failed + 1;
                      decr left;
                      if !left = 0 then Sim.Condvar.broadcast all_done))
                dues);
          while !left > 0 do
            Sim.Condvar.wait all_done
          done
        in
        (w, load, fun () -> []));
  }

(* ingest: archive growth on an undersized disk farm over tape *)
(* 2 MB segments: a staged segment's blocks must fit one 4 KB summary
   block (about 1000 entries), and the migrator fills whole segments, so
   4 MB and larger tape segments make the migration fail *)
let ingest_seg_blocks = 512
let ingest_nsegs = 16
let ingest_prepop = 128
let ingest_writes = 2000
let ingest_rate = 0.5
let ingest_recent = 16
let ingest_batch = 50
let ingest_low = 8
let ingest_high = 11
let ingest_cache_segs = 4

(* The files are archived by path, one closed batch at a time, with
   [Migrator.migrate_paths] as bench/table3 and bench/table4_6 migrate
   theirs. [Policy.Automigrate.run_once] is not called: both of its
   rankings ([Stp.rank], [Namespace.select]) load every inode, so each
   call demand-fetches the migrated inodes back from tape, and on this
   disk one such fetch finds no clean segment for its cache line while
   the caller holds up the cleaner, and the simulation stops. *)
let ingest =
  {
    wname = "ingest";
    why =
      "open-loop creates and overwrites on an undersized disk over tape, batches archived by path: LFS writes, cleaner, migrator and write-out";
    params =
      [
        ("loop", "open, Poisson arrivals, one writer process serving them in due order");
        ("rate_per_sim_s", Printf.sprintf "%g" ingest_rate);
        ("writes", string_of_int ingest_writes);
        ("create_fraction", "0.4 (ops 0 and 1 of every 5)");
        ("create_blocks", "8..32, scattered over the file index");
        ("overwrite", Printf.sprintf "1..8 blocks by op index, at a seeded aligned offset of one of the last %d files created" ingest_recent);
        ("prepopulated_files", Printf.sprintf "%d of 8..32 blocks, archived during set-up" ingest_prepop);
        ("disk_segments", Printf.sprintf "%d x 2 MB" ingest_nsegs);
        ("archiving",
         Printf.sprintf "every %dth write: Migrator.migrate_paths of the files created in the batch of %d writes before the last one; no migration policy"
           ingest_batch ingest_batch);
        ("cleaning",
         Printf.sprintf "every 5th write and after each archiving: Cleaner.clean_until %d when fewer than %d segments are clean; checkpoint every %dth write"
           ingest_high ingest_low ingest_batch);
        ("devices", "RZ57 on its own SCSI bus; Metrum tape jukebox, 2 drives, 2 MB segments");
        ("cache_segs", string_of_int ingest_cache_segs);
      ];
    ops = ingest_writes;
    zero = [];
    setup =
      (fun ~ops engine rng ->
        let prm =
          {
            paper_prm with
            Param.seg_blocks = ingest_seg_blocks;
            nsegs = ingest_nsegs;
            clean_reserve = 1;
          }
        in
        let w =
          make_world engine ~prm
            ~disk_blocks:(Some ((ingest_nsegs + 2) * ingest_seg_blocks))
            ~seg_blocks:ingest_seg_blocks ~segs_per_volume:64 ~cache_segs:ingest_cache_segs
            ~jukebox:(fun bus ->
              Device.Jukebox.create engine ~bus ~drives:2 ~nvolumes:4
                ~vol_capacity:(64 * ingest_seg_blocks) ~media:Device.Jukebox.metrum_tape
                ~changer:Device.Jukebox.metrum_changer "metrum")
        in
        ignore (Dir.mkdir w.fs "/in");
        let files = ref [] and nfiles = ref 0 in
        (* the files created since the last batch boundary *)
        let batch = ref [] in
        let new_file () =
          let f =
            {
              path = Printf.sprintf "/in/f%05d" !nfiles;
              tags = Array.make (scatter !nfiles ~lo:8 ~hi:32) 0;
              known = true;
            }
          in
          incr nfiles;
          files := f :: !files;
          batch := f :: !batch;
          f
        in
        let clean acc =
          if Fs.nclean w.fs < ingest_low then begin
            let t0 = now w and f0 = demand_fetches w in
            let r =
              span "cleaner.clean_until" (fun () ->
                  Cleaner.clean_until w.fs ~target_clean:ingest_high ())
            in
            acc.clean_calls <- acc.clean_calls + 1;
            acc.clean_segs <- acc.clean_segs + r.Cleaner.segments_cleaned;
            acc.clean_sim <- acc.clean_sim +. (now w -. t0);
            acc.clean_fetches <- acc.clean_fetches + (demand_fetches w - f0)
          end
        in
        let archive acc fs =
          let paths = List.rev_map (fun f -> f.path) (List.filter (fun f -> f.known) fs) in
          if paths <> [] then begin
            let t0 = now w and b0 = w.st.State.bytes_migrated in
            ignore
              (span "migrator.migrate_paths" (fun () -> Highlight.Migrator.migrate_paths w.st paths));
            acc.migr_calls <- acc.migr_calls + 1;
            acc.migr_sim <- acc.migr_sim +. (now w -. t0);
            acc.migr_bytes <- acc.migr_bytes + (w.st.State.bytes_migrated - b0)
          end;
          clean acc
        in
        (* set-up: the existing archive, written and archived in batches *)
        let setup_acc = new_acc () in
        for i = 1 to ingest_prepop do
          create_file w (new_file ());
          if i mod 16 = 0 then begin
            archive setup_acc !batch;
            batch := []
          end
        done;
        Fs.checkpoint w.fs;
        let dues = poisson rng ~rate:ingest_rate ops in
        let recent = Array.make ingest_recent None and nrecent = ref 0 in
        let remember f =
          recent.(!nrecent mod ingest_recent) <- Some f;
          incr nrecent
        in
        (* the batch closed last, archived when the next one closes, so
           the [ingest_recent] files overwrites pick from are never on
           tape *)
        let closed = ref [] in
        let maintain acc id =
          try
            if (id + 1) mod ingest_batch = 0 then begin
              archive acc !closed;
              closed := !batch;
              batch := [];
              span "fs.checkpoint" (fun () -> Fs.checkpoint w.fs)
            end
            else if (id + 1) mod 5 = 0 then clean acc
          with e -> acc.problems <- ("maintenance: " ^ Printexc.to_string e) :: acc.problems
        in
        let load acc =
          let t0 = now w in
          let arrived = ref 0 in
          Array.iteri
            (fun id d ->
              let due = t0 +. d in
              if now w < due then Sim.Engine.delay (due -. now w);
              acc.attempted <- acc.attempted + 1;
              let start = now w in
              (* the op mix and sizes follow the op index, so every seed
                 writes about the same bytes; the seed picks arrival
                 times, overwrite targets and offsets *)
              let target =
                if id mod 5 < 2 || !nrecent = 0 then None
                else
                  match recent.(Rng.int rng (min !nrecent ingest_recent)) with
                  | Some f when f.known -> Some f
                  | _ -> None
              in
              let ok =
                in_flight acc @@ fun () ->
                span ~req:id "write" (fun () ->
                    match target with
                    | Some f ->
                        let nb = Array.length f.tags in
                        let len = min nb (1 + (id mod 8)) in
                        let off = Rng.int rng (nb - len + 1) in
                        write_checked w acc f ~off:(off * block) ~len:(len * block)
                    | None ->
                        let f = new_file () in
                        remember f;
                        write_checked w acc f ~off:0 ~len:(file_size f))
              in
              let fin = now w in
              (* writes that arrived while this one ran wait their turn:
                 they are in flight too *)
              while !arrived < ops && t0 +. dues.(!arrived) <= fin do
                incr arrived
              done;
              acc.max_in_flight <- max acc.max_in_flight (!arrived - id);
              record acc ~kind:"write" ~id ~due ~start ~fin;
              if not ok then acc.failed <- acc.failed + 1;
              maintain acc id)
            dues
        in
        (* a sample of the final file set, archived files included *)
        let sample () =
          let all = Array.of_list !files in
          Rng.shuffle rng all;
          Array.to_list (Array.sub all 0 (min 24 (Array.length all)))
        in
        (w, load, sample));
  }

(* hot_read: a closed loop over a disk-resident set that fits the caches *)
let hot_files = 384
let hot_migrated = 12
let hot_reads = 100000
let hot_zipf = 1.1
let hot_cache_segs = 32

let hot_read =
  {
    wname = "hot_read";
    why =
      "closed-loop Zipf reads, mostly small, of a disk-resident 9 MB set (3x the buffer cache), 12 files in cached segments: buffer cache and engine; tertiary idle";
    params =
      [
        ("loop", "closed, one client, no think time");
        ("reads", string_of_int hot_reads);
        ("files", string_of_int hot_files);
        ("file_blocks", "2..10, scattered over the ranks (about 9 MB in all, 3x the buffer cache)");
        ("migrated_and_cached", Printf.sprintf "every %dth file (%d), kept in segment-cache lines" (hot_files / hot_migrated) hot_migrated);
        ("zipf_s", Printf.sprintf "%g" hot_zipf);
        ("read", "1 in 16 whole-file, else 1..2048 bytes at a random offset");
        ("cache_segs", string_of_int hot_cache_segs);
        ("devices", "same as recall; the tertiary is not touched after set-up");
        ("caches_at_start", "as left by populate and migrate");
      ];
    ops = hot_reads;
    zero = [ "service.demand_fetches"; "jukebox.bytes_read"; "jukebox.bytes_written" ];
    setup =
      (fun ~ops engine rng ->
        let w = mo_world engine ~cache_segs:hot_cache_segs in
        ignore (Dir.mkdir w.fs "/h");
        let files =
          Array.init hot_files (fun i ->
              {
                path = Printf.sprintf "/h/f%03d" i;
                tags = Array.make (scatter i ~lo:2 ~hi:10) 0;
                known = true;
              })
        in
        Array.iter (create_file w) files;
        Fs.checkpoint w.fs;
        for i = 0 to hot_migrated - 1 do
          ignore
            (span "migrator.migrate_paths" (fun () ->
                 Highlight.Migrator.migrate_paths w.st ~with_inodes:false
                   [ files.(i * (hot_files / hot_migrated)).path ]))
        done;
        let pick = zipf_picker rng ~s:hot_zipf hot_files in
        let load acc =
          for id = 0 to ops - 1 do
            let f = files.(pick ()) in
            let size = file_size f in
            let off, len =
              if Rng.int rng 16 = 0 then (0, size)
              else
                let off = Rng.int rng size in
                (off, min (size - off) (1 + Rng.int rng 2048))
            in
            acc.attempted <- acc.attempted + 1;
            let start = now w in
            let ok = in_flight acc (fun () -> span ~req:id "access" (fun () -> read_checked w acc f ~off ~len)) in
            let fin = now w in
            record acc ~kind:"access" ~id ~due:start ~start ~fin;
            if not ok then acc.failed <- acc.failed + 1
          done
        in
        (w, load, fun () -> []));
  }

let workloads = [ recall; ingest; hot_read ]

(* ---------- counters ---------- *)

(* Every raw accumulator the layers export, read at one instant. *)
let raw_counters w =
  let m = Hl.metrics w.hl in
  let c name = float_of_int (Sim.Metrics.count (Sim.Metrics.counter m name)) in
  let cache = Hl.cache w.hl and bc = Fs.bcache w.fs and st = w.st in
  let i = float_of_int in
  [
    ("engine.events", i (Sim.Engine.events_retired w.engine));
    ("disk.reads", i (Device.Disk.reads w.disk));
    ("disk.writes", i (Device.Disk.writes w.disk));
    ("disk.bytes_read", i (Device.Disk.bytes_read w.disk));
    ("disk.bytes_written", i (Device.Disk.bytes_written w.disk));
    ("disk.busy_s", Device.Disk.busy_time w.disk);
    ("disk.seek_s", Device.Disk.seek_time w.disk);
    ("jukebox.swaps", i (Device.Jukebox.swaps w.jb));
    ("jukebox.swap_s", Device.Jukebox.swap_time_total w.jb);
    ("jukebox.bytes_read", i (Device.Jukebox.bytes_read w.jb));
    ("jukebox.bytes_written", i (Device.Jukebox.bytes_written w.jb));
    ("footprint.busy_s", Footprint.time_in_footprint w.fp);
    ("footprint.bytes_read", i (Footprint.bytes_read w.fp));
    ("footprint.bytes_written", i (Footprint.bytes_written w.fp));
    ("seg_cache.hits", i (Highlight.Seg_cache.hits cache));
    ("seg_cache.misses", i (Highlight.Seg_cache.misses cache));
    ("seg_cache.evictions", i (Highlight.Seg_cache.evictions cache));
    ("bcache.hits", i (Bcache.hits bc));
    ("bcache.misses", i (Bcache.misses bc));
    ("service.demand_fetches", c "service.demand_fetches_submitted");
    ("service.prefetches", c "service.prefetches_submitted");
    ("service.writeouts", c "service.writeouts_submitted");
    ("service.retries", c "service.retries");
    ("service.failures", c "service.io_failures");
    ("service.fetch_failures", c "service.fetch_failures");
    ("service.writeout_failures", c "service.writeout_failures");
    ("service.fetches_completed", i w.fetches_done);
    ("service.writeouts_completed", i w.writeouts_done);
    ("prefetch.used", c "prefetch.used");
    ("prefetch.dropped", c "prefetch.dropped");
    ("prefetch.evicted_unused", c "prefetch.evicted_unused");
    ("idle.preempted", c "idle.preempted");
    ("io.disk_s", st.State.io_disk_time);
    ("io.tertiary_s", st.State.io_tertiary_time);
    ("io.union_s", st.State.io_union_time);
    ("wo.disk_s", st.State.wo_disk_time);
    ("wo.tertiary_s", st.State.wo_tertiary_time);
    ("wo.union_s", st.State.wo_union_time);
    ("lfs.segments_written", i (Fs.segments_written w.fs));
    ("lfs.partials_written", i (Fs.partials_written w.fs));
    ("migrator.blocks_migrated", i st.State.blocks_migrated);
    ("migrator.segments_staged", i st.State.segments_staged);
  ]

let delta before after = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after
let get l k = try List.assoc k l with Not_found -> 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The per-layer view of one measured phase. *)
let layer_metrics ~drives d acc =
  let g = get d in
  let hits = g "seg_cache.hits" and misses = g "seg_cache.misses" in
  let bh = g "bcache.hits" and bm = g "bcache.misses" in
  let used = g "prefetch.used" in
  let op_time = List.fold_left (fun t (k, v) -> if k = "first_byte" then t else t +. v) 0.0 acc.lat in
  let wasted = g "prefetch.dropped" +. g "prefetch.evicted_unused" in
  let keep =
    [
      "engine.events"; "disk.reads"; "disk.writes"; "disk.bytes_read"; "disk.bytes_written";
      "disk.busy_s"; "disk.seek_s"; "jukebox.swaps"; "jukebox.swap_s"; "jukebox.bytes_read";
      "jukebox.bytes_written"; "footprint.busy_s"; "footprint.bytes_read";
      "footprint.bytes_written"; "seg_cache.hits"; "seg_cache.misses"; "seg_cache.evictions";
      "bcache.hits"; "bcache.misses"; "service.demand_fetches"; "service.prefetches";
      "service.writeouts"; "service.retries"; "service.failures";
      "lfs.segments_written"; "lfs.partials_written"; "migrator.blocks_migrated";
      "migrator.segments_staged";
    ]
  in
  List.map (fun k -> (k, g k)) keep
  @ [
      ("seg_cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 1.0);
      ("bcache.hit_ratio", if bh +. bm > 0.0 then bh /. (bh +. bm) else 1.0);
      ("service.prefetch_accuracy", if used +. wasted > 0.0 then used /. (used +. wasted) else 1.0);
      ("service.io_overlap", ratio (g "io.disk_s" +. g "io.tertiary_s") (g "io.union_s"));
      ("service.writeout_overlap", ratio (g "wo.disk_s" +. g "wo.tertiary_s") (g "wo.union_s"));
      ("lfs.write_amp", ratio (g "disk.bytes_written") (float_of_int acc.written));
      ("cleaner.calls", float_of_int acc.clean_calls);
      ("cleaner.segments_cleaned", float_of_int acc.clean_segs);
      ("cleaner.sim_s", acc.clean_sim);
      ("cleaner.demand_fetches", float_of_int acc.clean_fetches);
      ("migrator.calls", float_of_int acc.migr_calls);
      ("migrator.sim_s", acc.migr_sim);
      (* Little's law: time ops spent in flight over the load's length *)
      ("load.in_flight_mean", ratio op_time acc.load_sim);
      ("load.in_flight_max", float_of_int acc.max_in_flight);
      ("load.drive_occupancy", ratio (g "footprint.busy_s") (float_of_int drives *. acc.load_sim));
    ]

let wait_classes = [ "demand_fetch"; "writeout" ]

(* The ledger's waits by class and category, each class's share of
   end-to-end time spent queued, and the queueing of all classes
   together ([State.queue_time] stays 0 in pipelined mode). *)
let ledger_metrics summary =
  let cat_total cs cat =
    match List.find_opt (fun c -> c.Sim.Ledger.cat = cat) cs.Sim.Ledger.by_category with
    | Some c -> c.Sim.Ledger.total_s
    | None -> 0.0
  in
  let queued = List.fold_left (fun s cs -> s +. cat_total cs Sim.Ledger.Queue_wait) 0.0 summary in
  ("service.queue_wait_s", queued)
  :: List.concat_map
       (fun cls ->
         let cs = List.find_opt (fun cs -> cs.Sim.Ledger.cls = cls) summary in
         let total cat = match cs with Some cs -> cat_total cs cat | None -> 0.0 in
         let e2e = match cs with Some cs -> cs.Sim.Ledger.e2e_total_s | None -> 0.0 in
         List.map
           (fun cat -> (Printf.sprintf "wait.%s.%s_s" cls (Sim.Ledger.category_name cat), total cat))
           Sim.Ledger.categories
         @ [ (Printf.sprintf "wait.%s.queue_share" cls, ratio (total Sim.Ledger.Queue_wait) e2e) ])
       wait_classes

(* The accounting identities of a drained run; each broken one is
   returned as a message. [d] holds measured-phase deltas up to the end
   of shutdown. *)
let identities w d acc summary ~open_ledgers =
  let g = get d in
  let broken = ref [] in
  let check name ok detail = if not ok then broken := (name ^ ": " ^ detail) :: !broken in
  let requests cls =
    match List.find_opt (fun cs -> cs.Sim.Ledger.cls = cls) summary with
    | Some cs -> float_of_int cs.Sim.Ledger.requests
    | None -> 0.0
  in
  let cancelled = g "prefetch.dropped" +. g "idle.preempted" in
  let fsub = g "service.demand_fetches" +. g "service.prefetches" in
  let fdone = g "service.fetches_completed" and ffail = g "service.fetch_failures" in
  check "fetches submitted = completed + failed + cancelled"
    (fsub = fdone +. ffail +. cancelled)
    (Printf.sprintf "%g <> %g + %g + %g" fsub fdone ffail cancelled);
  check "demand fetches submitted = demand ledgers closed"
    (g "service.demand_fetches" = requests "demand_fetch")
    (Printf.sprintf "%g <> %g" (g "service.demand_fetches") (requests "demand_fetch"));
  check "prefetches submitted = prefetch ledgers closed + cancelled"
    (g "service.prefetches" = requests "prefetch" +. cancelled)
    (Printf.sprintf "%g <> %g + %g" (g "service.prefetches") (requests "prefetch") cancelled);
  let wsub = g "service.writeouts" in
  let wdone = g "service.writeouts_completed" and wfail = g "service.writeout_failures" in
  check "write-outs submitted = completed + failed" (wsub = wdone +. wfail)
    (Printf.sprintf "%g <> %g + %g" wsub wdone wfail);
  check "Footprint.swaps = sum of Jukebox.swaps"
    (Footprint.swaps w.fp = Device.Jukebox.swaps w.jb)
    (Printf.sprintf "%d <> %d" (Footprint.swaps w.fp) (Device.Jukebox.swaps w.jb));
  List.iter
    (fun cs ->
      let charged =
        List.fold_left (fun s c -> s +. c.Sim.Ledger.total_s) 0.0 cs.Sim.Ledger.by_category
      in
      let e2e = cs.Sim.Ledger.e2e_total_s in
      check
        (Printf.sprintf "ledger %s charges = end-to-end time" cs.Sim.Ledger.cls)
        (Float.abs (charged -. e2e) <= (0.01 *. e2e) +. 1e-9)
        (Printf.sprintf "%.6f vs %.6f" charged e2e))
    summary;
  check "no open ledgers" (open_ledgers = 0) (Printf.sprintf "%d open" open_ledgers);
  check "bytes returned = bytes requested" (acc.returned = acc.requested)
    (Printf.sprintf "%d <> %d" acc.returned acc.requested);
  List.rev !broken

(* ---------- one repetition ---------- *)

type rep = {
  setup_s : float;
  host_s : float;  (** measured phase, host CPU, the benchmark's own work excluded *)
  heap_mb : float;  (** largest major heap seen at the end of a GC cycle, set-up included *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  r_acc : acc;
  lats : (string * float array) list;  (** sorted *)
  layers : (string * float) list;
  waits : (string * float) list;
  broken : string list;  (** accounting identities that failed (traced run) *)
  shutdown_cancelled : float;
  check_problems : string list;
  digest : string;
  spans : (span * float * float) list;
}

let sorted_lats acc =
  let kinds = List.sort_uniq compare (List.map fst acc.lat) in
  List.map
    (fun k ->
      let a = Array.of_list (List.filter_map (fun (k', v) -> if k = k' then Some v else None) acc.lat) in
      Array.sort compare a;
      (k, a))
    kinds

(* The final read-back: every modelled file the run did not lose,
   checked against the model once the load is over (ingest reads
   nothing during its measured phase). *)
let read_back w acc files =
  List.iter
    (fun f ->
      if f.known then begin
        acc.read_back <- acc.read_back + 1;
        match Hl.read_file w.hl f.path () with
        | data ->
            if not (Bytes.length data = file_size f && matches f ~off:0 data) then
              acc.problems <- ("read-back mismatch: " ^ f.path) :: acc.problems
        | exception e ->
            acc.problems <- ("read-back " ^ f.path ^ ": " ^ Printexc.to_string e) :: acc.problems
      end)
    files

let held_out_seed = 20260917

(* A repetition without the per-op data: what later repetitions keep,
   so that what they hold does not grow the heap of the next one *)
let slim r =
  {
    r with
    r_acc = { r.r_acc with lat = []; ops = Buffer.create 1 };
    lats = [];
    layers = [];
    waits = [];
    spans = [];
  }

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let run_rep ?(check = true) ?ops ~traced wl ~seed =
  let ops = Option.value ops ~default:wl.ops in
  Gc.compact ();
  (* the peak of this repetition alone: [top_heap_words] never falls *)
  let heap_peak = ref (heap_words ()) in
  let alarm = Gc.create_alarm (fun () -> heap_peak := max !heap_peak (heap_words ())) in
  client_cpu := 0.0;
  let c0 = Sys.time () in
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"bench-main" (fun () ->
      let w, load, read_back_set = wl.setup ~ops engine (Rng.create seed) in
      let c1 = Sys.time () in
      let setup_s = c1 -. c0 -. !client_cpu in
      let before = raw_counters w in
      if traced then begin
        Sim.Ledger.install engine;
        tracer := Some { teng = engine; spans = []; nspans = 0; stacks = Hashtbl.create 64 }
      end;
      let acc = new_acc () in
      client_cpu := 0.0;
      let g0 = Gc.quick_stat () in
      let c1 = Sys.time () and s1 = now w in
      load acc;
      acc.load_sim <- now w -. s1;
      drain w acc;
      let c2 = Sys.time () in
      Gc.delete_alarm alarm;
      heap_peak := max !heap_peak (heap_words ());
      let g1 = Gc.quick_stat () in
      let host_s = c2 -. c1 -. !client_cpu in
      let spans = match !tracer with Some t -> t.spans | None -> [] in
      tracer := None;
      let after = raw_counters w in
      let summary = Sim.Ledger.summary () and open_ledgers = Sim.Ledger.open_requests () in
      let broken = if traced then identities w (delta before after) acc summary ~open_ledgers else [] in
      let waits = if traced then ledger_metrics summary else [] in
      Sim.Ledger.uninstall ();
      let d = delta before after in
      let layers = layer_metrics ~drives:(Footprint.ndrives w.fp) d acc in
      List.iter
        (fun k ->
          if get layers k <> 0.0 then
            acc.problems <- Printf.sprintf "%s is %g in the measured phase, expected 0" k (get layers k) :: acc.problems)
        wl.zero;
      let lats = sorted_lats acc in
      (* the simulated record: op times and every per-layer count *)
      let b = Buffer.create 4096 in
      Buffer.add_buffer b acc.ops;
      List.iter (fun (k, v) -> Printf.bprintf b "%s %h\n" k v) layers;
      let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
      (* end-of-run checks, outside the measured phase *)
      if check then begin
        read_back w acc (read_back_set ());
        drain w acc
      end;
      let check_problems =
        acc.problems
        @
        if check then
          Hl.check w.hl @ (try Debug.fsck w.fs with e -> [ "fsck raised: " ^ Printexc.to_string e ])
        else []
      in
      let failures_before = Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics w.hl) "service.fetch_failures") in
      Hl.shutdown_service w.hl;
      let shutdown_cancelled =
        float_of_int
          (Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics w.hl) "service.fetch_failures")
          - failures_before)
      in
      result :=
        Some
          {
            setup_s;
            host_s;
            heap_mb = float_of_int (!heap_peak * (Sys.word_size / 8)) /. mib;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            major_words = g1.Gc.major_words -. g0.Gc.major_words;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
            r_acc = acc;
            lats;
            layers;
            waits;
            broken;
            shutdown_cancelled;
            check_problems;
            digest;
            spans = (if traced then self_times spans else []);
          });
  Sim.Engine.run engine;
  match !result with
  | Some r -> r
  | None ->
      failwith
        (Printf.sprintf "%s: the simulation did not finish (blocked: %s)" wl.wname
           (String.concat ", " (Sim.Engine.blocked_process_names engine)))

(* ---------- host probes ---------- *)

(* Each probe calls into one layer from a single sim process, with
   nothing else runnable, and reports host ns and allocated words per
   call. Span host time cannot give this: inside a concurrent run a
   span's host duration also counts every process that ran while its
   caller was parked. *)

let per_op n ns words = (ns *. 1e9 /. float_of_int n, words /. float_of_int n)

let timed n f =
  let w0 = alloc_words () and t0 = Unix.gettimeofday () in
  for i = 1 to n do
    f i
  done;
  per_op n (Unix.gettimeofday () -. t0) (alloc_words () -. w0)

(* [prep] runs untimed before each call *)
let timed_each n ~prep f =
  let ns = ref 0.0 and words = ref 0.0 in
  for i = 1 to n do
    prep i;
    let w0 = alloc_words () and t0 = Unix.gettimeofday () in
    f i;
    ns := !ns +. (Unix.gettimeofday () -. t0);
    words := !words +. (alloc_words () -. w0)
  done;
  per_op n !ns !words

let in_sim f =
  let engine = Sim.Engine.create () in
  let r = ref None in
  Sim.Engine.spawn engine ~name:"probe" (fun () -> r := Some (f engine));
  Sim.Engine.run engine;
  match !r with Some v -> v | None -> failwith "probe did not finish"

let seg_image () = payload 1 ~off:0 ~len:(256 * block)
let no_chunk ~off:_ ~blocks:_ = ()

let mo_jukebox engine =
  Device.Jukebox.create engine ~drives:1 ~nvolumes:2 ~vol_capacity:10240
    ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "probe-mo"

(* an MO world holding [n] files of [blocks] blocks named [prefix]<i> *)
let probe_world engine ~n ~blocks prefix =
  let w = mo_world ~nvolumes:2 engine ~cache_segs:16 in
  let files =
    Array.init n (fun i ->
        let f = { path = Printf.sprintf "/%s%d" prefix i; tags = Array.make blocks 0; known = true } in
        create_file w f;
        f)
  in
  Fs.checkpoint w.fs;
  (w, files)

let probes : (string * (unit -> float * float)) list =
  [
    ( "eventq",
      fun () ->
        let q = Sim.Eventq.create () and clock = { Sim.Eventq.time = 0.0 } in
        let slot = { Sim.Eventq.act = Sim.Eventq.Noop; pid = 0; name = "probe" } in
        for i = 1 to 1024 do
          Sim.Eventq.push q ~time:(float_of_int i) slot
        done;
        timed 300_000 (fun _ ->
            Sim.Eventq.push_after q clock slot ~after:1024.0;
            ignore (Sim.Eventq.pop_into q clock)) );
    ( "blockstore.read_into",
      fun () ->
        let s = Device.Blockstore.create ~block_size:block ~nblocks:256 in
        Device.Blockstore.write s ~blk:0 (seg_image ());
        let dst = Bytes.create block in
        timed 200_000 (fun i -> Device.Blockstore.read_into s ~blk:(i land 255) ~count:1 ~dst ~dst_off:0)
    );
    ( "disk.read_into",
      fun () ->
        in_sim (fun engine ->
            let d = Device.Disk.create engine Device.Disk.rz57 ~name:"probe-disk" in
            Device.Disk.write d ~blk:0 (seg_image ());
            let dst = Bytes.create (256 * block) in
            timed 400 (fun _ -> Device.Disk.read_into d ~blk:0 ~count:256 ~dst ~dst_off:0)) );
    ( "jukebox.read_stream_into",
      fun () ->
        in_sim (fun engine ->
            let jb = mo_jukebox engine in
            Device.Jukebox.write jb ~vol:0 ~blk:0 (seg_image ());
            let dst = Bytes.create (256 * block) in
            timed 300 (fun _ ->
                Device.Jukebox.read_stream_into jb ~vol:0 ~blk:0 ~count:256 ~dst ~dst_off:0 no_chunk))
    );
    ( "footprint.read_seg_stream_into",
      fun () ->
        in_sim (fun engine ->
            let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:40 [ mo_jukebox engine ] in
            ignore (Footprint.write_seg fp ~vol:0 ~seg:0 (seg_image ()));
            let dst = Bytes.create (256 * block) in
            timed 300 (fun _ -> Footprint.read_seg_stream_into fp ~vol:0 ~seg:0 ~dst ~dst_off:0 no_chunk))
    );
    ( "seg_cache.find",
      fun () ->
        let c = Highlight.Seg_cache.create ~max_lines:16 () in
        for i = 0 to 15 do
          ignore (Highlight.Seg_cache.insert c ~tindex:i ~disk_seg:i ~state:Highlight.Seg_cache.Resident ~now:0.0)
        done;
        (* half the lookups hit *)
        timed 1_000_000 (fun i -> ignore (Highlight.Seg_cache.find c (i land 31))) );
    ( "hl.read_file_hit",
      fun () ->
        in_sim (fun engine ->
            let w, files = probe_world engine ~n:1 ~blocks:1 "hit" in
            let path = files.(0).path in
            ignore (Hl.read_file w.hl path ~off:0 ~len:block ());
            let r = timed 20_000 (fun _ -> ignore (Hl.read_file w.hl path ~off:0 ~len:block ())) in
            Hl.shutdown_service w.hl;
            r) );
    ( "fs.write_seg",
      fun () ->
        in_sim (fun engine ->
            let w, _ = probe_world engine ~n:0 ~blocks:0 "" in
            (* one segment of data: the summary block and one indirect block take the rest *)
            let data = payload 1 ~off:0 ~len:(253 * block) in
            let r =
              timed 40 (fun _ ->
                  Hl.write_file w.hl "/seg" data;
                  Fs.flush w.fs)
            in
            Hl.shutdown_service w.hl;
            r) );
    ( "migrator.stage_seg",
      fun () ->
        in_sim (fun engine ->
            let n = 12 in
            let w, files = probe_world engine ~n ~blocks:200 "stage" in
            let inum i = (Dir.namei w.fs files.(i - 1).path).Inode.inum in
            let r =
              timed_each n
                ~prep:(fun i ->
                  if i > 1 then begin
                    ignore (Highlight.Migrator.flush_staged w.st ~wait:true ());
                    Highlight.Migrator.demote_cached_clean w.st
                  end)
                (fun i -> ignore (Highlight.Migrator.stage_files_only w.st [ inum i ]))
            in
            ignore (Highlight.Migrator.flush_staged w.st ~wait:true ());
            Hl.shutdown_service w.hl;
            r) );
    ( "service.demand_fetch",
      fun () ->
        in_sim (fun engine ->
            let n = 12 in
            let w, files = probe_world engine ~n:(n + 1) ~blocks:64 "fetch" in
            w.st.State.restrict_volume <- Some 0;
            Array.iter
              (fun f -> ignore (Highlight.Migrator.migrate_paths w.st ~with_inodes:false [ f.path ]))
              files;
            Hl.eject_tertiary_copies w.hl ~paths:(Array.to_list (Array.map (fun f -> f.path) files));
            Fs.drop_caches w.fs;
            (* the first fetch loads the volume; the timed ones find it loaded *)
            let acc = new_acc () in
            ignore (Hl.read_file w.hl files.(0).path ~off:0 ~len:block ());
            drain w acc;
            let r =
              timed_each n ~prep:ignore (fun i ->
                  ignore (Hl.read_file w.hl files.(i).path ~off:0 ~len:block ());
                  drain w acc)
            in
            Hl.shutdown_service w.hl;
            r) );
  ]

(* ---------- workload record ---------- *)

let describe ~held_out_seed =
  let fields kvs = String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "      %S: %s" k v) kvs) in
  let wl w =
    Printf.sprintf "    {\n%s\n    }"
      (fields
         ([ ("name", Printf.sprintf "%S" w.wname); ("why", Printf.sprintf "%S" w.why) ]
         @ List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) w.params))
  in
  Printf.sprintf
    "{\n  \"schema\": \"highlight-perfbench-workloads/v1\",\n  \"buffer_cache_bytes\": %d,\n  \"segment_bytes\": {\"recall\": %d, \"hot_read\": %d, \"ingest\": %d},\n  \"held_out_seed\": %d,\n  \"workloads\": [\n%s\n  ]\n}\n"
    (paper_prm.Param.bcache_blocks * block) (paper_prm.Param.seg_blocks * block)
    (paper_prm.Param.seg_blocks * block) (ingest_seg_blocks * block) held_out_seed
    (String.concat ",\n" (List.map wl workloads))
