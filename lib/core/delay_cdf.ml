module Trace = Omn_temporal.Trace
module Pool = Omn_parallel.Pool
module Chunk = Omn_parallel.Chunk
module Metrics = Omn_obs.Metrics
module Timeline = Omn_obs.Timeline
module Supervise = Omn_resilience.Supervise

let m_sources = Metrics.counter "delay_cdf.sources_done"
let m_pairs = Metrics.counter "delay_cdf.pairs_done"
let m_chunk_s = Metrics.histogram "delay_cdf.chunk_seconds"
let m_ckpt_s = Metrics.histogram "delay_cdf.checkpoint_seconds"
let m_ckpt_fallback = Metrics.counter "delay_cdf.ckpt_fallbacks"
let m_quarantined = Metrics.counter "delay_cdf.sources_quarantined"

type t = {
  grid_ : float array;
  slope_diff : float array;  (* length n+1: coefficient of d on [i_lo, i_full) *)
  const_diff : float array;  (* constant part on the same range *)
  full_diff : float array;   (* saturated contribution from i_full on *)
  mutable inf_mass : float;
  mutable total : float;
}

let create ~grid =
  let n = Array.length grid in
  if n = 0 then invalid_arg "Delay_cdf.create: empty grid";
  for i = 0 to n - 1 do
    if grid.(i) < 0. || Float.is_nan grid.(i) then invalid_arg "Delay_cdf.create: negative budget";
    if i > 0 && grid.(i) < grid.(i - 1) then invalid_arg "Delay_cdf.create: grid not ascending"
  done;
  {
    grid_ = Array.copy grid;
    slope_diff = Array.make (n + 1) 0.;
    const_diff = Array.make (n + 1) 0.;
    full_diff = Array.make (n + 1) 0.;
    inf_mass = 0.;
    total = 0.;
  }

(* First grid index with grid.(i) >= x, or n. *)
let lower t x =
  let n = Array.length t.grid_ in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.grid_.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* One creation-time segment (a, b] governed by arrival [ea]: success
   measure at budget d is clamp(b - max(a, ea - d), 0, b - a) — zero up
   to d = ea - b, then (b - ea) + d, then saturated at b - a. *)
let add_segment t ~a ~b ~ea =
  if b > a then begin
    let i_lo = lower t (ea -. b) in
    let i_full = lower t (ea -. a) in
    if i_full > i_lo then begin
      t.slope_diff.(i_lo) <- t.slope_diff.(i_lo) +. 1.;
      t.slope_diff.(i_full) <- t.slope_diff.(i_full) -. 1.;
      t.const_diff.(i_lo) <- t.const_diff.(i_lo) +. (b -. ea);
      t.const_diff.(i_full) <- t.const_diff.(i_full) -. (b -. ea)
    end;
    t.full_diff.(i_full) <- t.full_diff.(i_full) +. (b -. a);
    t.inf_mass <- t.inf_mass +. (b -. a)
  end

let add_pair t ~t_start ~t_end (descriptors : Ld_ea.t array) =
  if t_start > t_end then invalid_arg "Delay_cdf.add_pair: reversed window";
  t.total <- t.total +. (t_end -. t_start);
  let prev_ld = ref neg_infinity in
  Array.iter
    (fun (p : Ld_ea.t) ->
      let a = Float.max t_start !prev_ld in
      let b = Float.min t_end p.ld in
      add_segment t ~a ~b ~ea:p.ea;
      prev_ld := p.ld)
    descriptors

(* [add_pair] off a live frontier: identical float operations in the
   identical order, minus the [Frontier.to_array] descriptor snapshot —
   the accumulation loop of [compute_batch] reads the frontier's SoA
   storage in place. *)
let add_pair_frontier t ~t_start ~t_end frontier =
  if t_start > t_end then invalid_arg "Delay_cdf.add_pair_frontier: reversed window";
  t.total <- t.total +. (t_end -. t_start);
  let n = Frontier.size frontier in
  let lds = Frontier.ld_arr frontier and eas = Frontier.ea_arr frontier in
  let prev_ld = ref neg_infinity in
  for i = 0 to n - 1 do
    let ld = lds.(i) in
    let a = Float.max t_start !prev_ld in
    let b = Float.min t_end ld in
    add_segment t ~a ~b ~ea:eas.(i);
    prev_ld := ld
  done

let success t =
  let n = Array.length t.grid_ in
  let out = Array.make n 0. in
  let slope = ref 0. and const = ref 0. and full = ref 0. in
  for i = 0 to n - 1 do
    slope := !slope +. t.slope_diff.(i);
    const := !const +. t.const_diff.(i);
    full := !full +. t.full_diff.(i);
    let mass = (!slope *. t.grid_.(i)) +. !const +. !full in
    out.(i) <- (if t.total > 0. then mass /. t.total else 0.)
  done;
  out

let success_inf t = if t.total > 0. then t.inf_mass /. t.total else 0.
let total_mass t = t.total

let merge_into ~dst src =
  if dst.grid_ <> src.grid_ then invalid_arg "Delay_cdf.merge_into: different grids";
  let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) +. v) b in
  add dst.slope_diff src.slope_diff;
  add dst.const_diff src.const_diff;
  add dst.full_diff src.full_diff;
  dst.inf_mass <- dst.inf_mass +. src.inf_mass;
  dst.total <- dst.total +. src.total

type curves = {
  grid : float array;
  hop_success : float array array;
  hop_success_inf : float array;
  flood_success : float array;
  flood_success_inf : float;
  max_rounds_used : int;
}

(* --- per-source partials (the merge building block) ---

   A [partial] is the contribution of one source to the final curves:
   its per-hop and flooding accumulators. Every driver folds partials
   into a [merger] in plan order, and [merge_into] is plain float
   addition, so the same order gives bit-identical curves whether the
   partials came from this domain, a pool, or a shard worker
   ([Omn_shard] ships them as Marshal payloads). *)

type partial = { p_hops : t array; p_flood : t; p_rounds : int }

let partial_magic = "omn-partial 1\n"

(* Self-contained so that sources can run on separate domains: the
   only shared value is the (frozen) trace. *)
let source_work ~max_hops ~budget_grid ~is_dest ~windows trace source =
  let p_hops = Array.init max_hops (fun _ -> create ~grid:budget_grid) in
  let p_flood = create ~grid:budget_grid in
  let n_dest_total = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 is_dest in
  let add_frontiers acc frontiers =
    Array.iteri
      (fun dest frontier ->
        if dest <> source && is_dest.(dest) then
          List.iter
            (fun (t_start, t_end) -> add_pair_frontier acc ~t_start ~t_end frontier)
            windows)
      frontiers
  in
  let on_round (info : Journey.round_info) =
    if info.hop <= max_hops then add_frontiers p_hops.(info.hop - 1) info.frontiers
  in
  let frontiers, rounds = Journey.run ~on_round trace ~source in
  for k = rounds + 1 to max_hops do
    add_frontiers p_hops.(k - 1) frontiers
  done;
  add_frontiers p_flood frontiers;
  Metrics.incr m_sources;
  Metrics.add m_pairs (n_dest_total - if is_dest.(source) then 1 else 0);
  { p_hops; p_flood; p_rounds = rounds }

(* The validated parameters every entry point shares. Raises
   [Invalid_argument], naming the first node id outside the trace. *)
let setup ~max_hops ?sources ?dests ?windows trace =
  if max_hops < 1 then invalid_arg "Delay_cdf: max_hops < 1";
  let n = Trace.n_nodes trace in
  let check_ids what =
    List.iter (fun id ->
        if id < 0 || id >= n then
          invalid_arg (Printf.sprintf "Delay_cdf: %s %d out of range (n_nodes = %d)" what id n))
  in
  Option.iter (check_ids "source") sources;
  Option.iter (check_ids "dest") dests;
  let windows =
    match windows with
    | None -> [ (Trace.t_start trace, Trace.t_end trace) ]
    | Some [] -> invalid_arg "Delay_cdf: empty window list"
    | Some ws ->
      List.iter (fun (a, b) -> if a > b then invalid_arg "Delay_cdf: reversed window") ws;
      ws
  in
  let is_dest =
    match dests with
    | None -> Array.make n true
    | Some ds ->
      let mask = Array.make n false in
      List.iter (fun d -> mask.(d) <- true) ds;
      mask
  in
  (is_dest, windows)

let source_partial ?(max_hops = 10) ?dests ?grid:(budget_grid = Omn_stats.Grid.delay_default)
    ?windows trace source =
  let is_dest, windows = setup ~max_hops ~sources:[ source ] ?dests ?windows trace in
  source_work ~max_hops ~budget_grid ~is_dest ~windows trace source

(* Marshal is safe here: both ends run the same binary (the coordinator
   spawns its own executable as workers) and the magic prefix rejects
   frames from anything else. Floats round-trip bit-exactly. *)
let partial_to_string p = partial_magic ^ Marshal.to_string p []

let partial_of_string s =
  let m = String.length partial_magic in
  if String.length s < m || String.sub s 0 m <> partial_magic then
    Error "not an omn-partial payload"
  else
    match (Marshal.from_string s m : partial) with
    | p -> Ok p
    | exception _ -> Error "unreadable omn-partial payload"

type merger = {
  mg_hops : t array;
  mg_flood : t;
  mutable mg_rounds : int;
  mg_grid : float array;
}

let merger_create ?(max_hops = 10) ?grid:(budget_grid = Omn_stats.Grid.delay_default) () =
  if max_hops < 1 then invalid_arg "Delay_cdf.merger_create: max_hops < 1";
  {
    mg_hops = Array.init max_hops (fun _ -> create ~grid:budget_grid);
    mg_flood = create ~grid:budget_grid;
    mg_rounds = 0;
    mg_grid = budget_grid;
  }

let merger_add m p =
  if Array.length p.p_hops <> Array.length m.mg_hops then
    invalid_arg "Delay_cdf.merger_add: max_hops mismatch";
  Array.iteri (fun i acc -> merge_into ~dst:m.mg_hops.(i) acc) p.p_hops;
  merge_into ~dst:m.mg_flood p.p_flood;
  m.mg_rounds <- max m.mg_rounds p.p_rounds

let merger_curves m =
  {
    grid = Array.copy m.mg_grid;
    hop_success = Array.map success m.mg_hops;
    hop_success_inf = Array.map success_inf m.mg_hops;
    flood_success = success m.mg_flood;
    flood_success_inf = success_inf m.mg_flood;
    max_rounds_used = m.mg_rounds;
  }

(* --- the source-plan driver --- *)

module Err = Omn_robust.Err
module Checkpoint = Omn_robust.Checkpoint

(* Reorder sources by a stride coprime to their count so that every
   prefix of the order is a near-uniform sample of the whole list —
   that is what makes a budget-truncated run a fair subsample. *)
let uniform_order sources =
  let arr = Array.of_list sources in
  let n = Array.length arr in
  if n <= 2 then sources
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let s = ref (max 1 (int_of_float (0.618 *. float_of_int n))) in
    while gcd n !s <> 1 do
      incr s
    done;
    List.init n (fun i -> arr.(i * !s mod n))
  end

let plan_order ?sources trace =
  match sources with
  | Some s -> s
  | None -> uniform_order (List.init (Trace.n_nodes trace) Fun.id)

type executor = Omn_temporal.Node.t list -> (partial, Supervise.failure) result array

type plan = {
  max_hops : int;
  budget_grid : float array;
  is_dest : bool array;
  windows : (float * float) list;
  order : Omn_temporal.Node.t list;
  batch : executor;
  out_of_budget : unit -> bool;
}

let run_plan ?(max_hops = 10) ?sources ?dests ?grid:(budget_grid = Omn_stats.Grid.delay_default)
    ?pool ?(domains = 1) ?windows ?budget_seconds ?(clock = Unix.gettimeofday) ?supervise
    ?executor trace f =
  try
    if domains < 1 then invalid_arg "Delay_cdf: domains < 1";
    if Option.value budget_seconds ~default:0. < 0. then invalid_arg "Delay_cdf: negative budget";
    Option.iter Supervise.validate supervise;
    let is_dest, windows = setup ~max_hops ?sources ?dests ?windows trace in
    (* One pool for the whole run, reused batch after batch. A borrowed
       pool is left to its owner; an owned one is shut down on every
       exit path. An external executor computes elsewhere: no pool. *)
    let owned =
      if pool = None && domains > 1 && executor = None then Some (Pool.create ~domains ())
      else None
    in
    let pool = if owned = None then pool else owned in
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown owned) @@ fun () ->
    let work = source_work ~max_hops ~budget_grid ~is_dest ~windows trace in
    let quarantines = match supervise with Some p -> p.Supervise.quarantine | None -> false in
    let batch sources =
      match (executor, supervise) with
      | Some ex, _ ->
        let rs = ex sources in
        if Array.length rs <> List.length sources then
          Printf.ksprintf failwith "executor returned %d results for %d sources"
            (Array.length rs) (List.length sources);
        (* An executor's failure is quarantined only under a policy that
           quarantines, as [Supervise.map] would do in process. *)
        if not quarantines then
          Array.iter
            (function
              | Ok _ -> ()
              | Error (f : Supervise.failure) ->
                Printf.ksprintf failwith "source %d: %s" f.item f.reason)
            rs;
        rs
      | None, None -> Array.map Result.ok (Pool.run ?pool ~domains work (Array.of_list sources))
      | None, Some policy ->
        Supervise.map ?pool ~domains ~id:Fun.id policy work (Array.of_list sources)
    in
    let t0 = clock () in
    let out_of_budget () =
      match budget_seconds with Some b -> clock () -. t0 >= b | None -> false
    in
    let order = plan_order ?sources trace in
    Omn_obs.Span.with_ ~name:"delay_cdf.run" @@ fun () ->
    Ok (f { max_hops; budget_grid; is_dest; windows; order; batch; out_of_budget })
  with
  | Err.Error e -> Error e
  | Invalid_argument msg -> Error (Err.v Err.Usage msg)
  | Sys_error msg -> Error (Err.v Err.Io msg)
  | Failure msg ->
    (* A source task failed with supervision off (or quarantine
       disabled): fail the whole run with a typed error rather than
       leaking the worker's exception through the result API. *)
    Error (Err.v Err.Compute ("source task failed: " ^ msg))

(* Clock reads for checkpoint and batch latency happen only when metrics
   or the timeline are on; the disabled path is timing-free. *)
let timed () = Metrics.enabled () || Timeline.enabled ()

let save_snapshot ~magic path snap =
  let timed = timed () in
  let t0 = if timed then Unix.gettimeofday () else 0. in
  Checkpoint.save ~magic ~path (Marshal.to_string snap []);
  if timed then begin
    let t1 = Unix.gettimeofday () in
    Metrics.observe m_ckpt_s (t1 -. t0);
    Timeline.record ~ts:t1 (Ckpt_write { path; seconds = t1 -. t0 })
  end

(* Current generation first; any failure (corruption, bad fingerprint)
   falls back to the rotated previous generation. *)
let load_snapshot ~magic ~fp ~fp_of ~resume path =
  if not (resume && (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path))) then
    None
  else begin
    let validate payload =
      match Marshal.from_string payload 0 with
      | exception _ -> Error (Err.v ~file:path Err.Checkpoint "unreadable payload")
      | snap when fp_of snap <> fp ->
        Error
          (Err.v ~file:path Err.Checkpoint
             "checkpoint was built for a different trace or parameters")
      | snap -> Ok snap
    in
    let snap, gen = Err.get_exn (Checkpoint.load ~magic ~validate path) in
    let fallback = gen = Checkpoint.Previous in
    if fallback then begin
      Metrics.incr m_ckpt_fallback;
      Timeline.record (Ckpt_fallback { path })
    end;
    Some (snap, fallback)
  end

(* --- the ordered fold: compute and compute_resumable --- *)

type progress = {
  sources_done : int;
  sources_total : int;
  partial : bool;
  degraded : Supervise.failure list;
  ckpt_fallback : bool;
}

(* [snap_degraded] stores failures as plain tuples so the Marshal layout
   does not depend on the [Supervise.failure] record's representation. *)
type snapshot = {
  snap_fingerprint : string;
  snap_done : int;
  snap_hops : t array;
  snap_flood : t;
  snap_rounds : int;
  snap_degraded : (int * int * string) list;
}

(* v3: CRC-32-framed payload with generation rotation (see
   [Omn_robust.Checkpoint]) and a quarantined-source list in the
   snapshot. v2 files are rejected by the magic mismatch. *)
let ckpt_magic = "omn-ckpt 3\n"

(* Fold the plan's partials into one merger in plan order. Chunks of
   [checkpoint_every] sources exist only when a checkpoint, a budget or
   a report needs a boundary; otherwise the whole plan is one fan-out.
   Chunking never changes the merge sequence, so it never changes the
   curves. Quarantined sources are skipped at merge time: the surviving
   merges are exactly those of a fault-free run over the surviving
   sources. *)
let compute_resumable ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows ?checkpoint
    ?(resume = false) ?(checkpoint_every = 8) ?budget_seconds ?report ?supervise ?executor trace =
  run_plan ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows ?budget_seconds ?supervise
    ?executor trace
  @@ fun p ->
  if checkpoint_every < 1 then invalid_arg "Delay_cdf: checkpoint_every < 1";
  let fp =
    if checkpoint = None then ""
    else
      Digest.to_hex
        (Digest.string
           (Marshal.to_string
              ( Trace.name trace, Trace.n_nodes trace, Trace.t_start trace, Trace.t_end trace,
                Trace.contacts trace, p.max_hops, p.budget_grid, p.is_dest, p.windows, p.order,
                checkpoint_every )
              []))
  in
  let m, done0, degraded0, ckpt_fallback =
    let fp_of s = s.snap_fingerprint in
    match Option.bind checkpoint (load_snapshot ~magic:ckpt_magic ~fp ~fp_of ~resume) with
    | None -> (merger_create ~max_hops:p.max_hops ~grid:p.budget_grid (), 0, [], false)
    | Some (s, fallback) ->
      ( { mg_hops = s.snap_hops; mg_flood = s.snap_flood; mg_rounds = s.snap_rounds;
          mg_grid = p.budget_grid },
        s.snap_done, s.snap_degraded, fallback )
  in
  let total = List.length p.order in
  let chunked = checkpoint <> None || budget_seconds <> None || report <> None in
  let timed = timed () in
  let done_ = ref done0 in
  let degraded = ref (List.map Supervise.failure_of_tuple degraded0) in
  let rec loop = function
    | [] -> ()
    | remaining ->
      let chunk, rest =
        if chunked then Chunk.split_at checkpoint_every remaining else (remaining, [])
      in
      let t_chunk = if timed then Unix.gettimeofday () else 0. in
      let results = p.batch chunk in
      Array.iter (function Ok part -> merger_add m part | Error _ -> ()) results;
      let failed = Supervise.failures results in
      Metrics.add m_quarantined (List.length failed);
      degraded := !degraded @ failed;
      if timed then begin
        let t1 = Unix.gettimeofday () in
        Metrics.observe m_chunk_s (t1 -. t_chunk);
        Timeline.record ~ts:t1
          (Chunk
             { index = !done_ / checkpoint_every; items = List.length chunk; start = t_chunk });
        if Timeline.enabled () then begin
          let gc = Gc.quick_stat () in
          Timeline.record ~ts:t1
            (Gc_sample
               {
                 minor = gc.Gc.minor_collections;
                 major = gc.Gc.major_collections;
                 heap_words = gc.Gc.heap_words;
               })
        end
      end;
      done_ := !done_ + List.length chunk;
      Option.iter
        (fun path ->
          save_snapshot ~magic:ckpt_magic path
            {
              snap_fingerprint = fp;
              snap_done = !done_;
              snap_hops = m.mg_hops;
              snap_flood = m.mg_flood;
              snap_rounds = m.mg_rounds;
              snap_degraded = List.map Supervise.failure_to_tuple !degraded;
            })
        checkpoint;
      Option.iter
        (fun r ->
          r ~done_:!done_ ~total ~degraded:(List.length !degraded) ~fallback:ckpt_fallback)
        report;
      if not (p.out_of_budget ()) then loop rest
  in
  loop (Chunk.drop done0 p.order);
  let partial = !done_ < total in
  if not partial then Option.iter Checkpoint.remove checkpoint;
  ( merger_curves m,
    { sources_done = !done_; sources_total = total; partial; degraded = !degraded; ckpt_fallback }
  )

let compute ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows trace =
  match compute_resumable ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows trace with
  | Ok (curves, _) -> curves
  | Error { Err.code = Err.Usage; msg; _ } -> invalid_arg msg
  | Error e -> raise (Err.Error e)
