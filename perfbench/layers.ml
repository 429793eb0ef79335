(* Traced replay of one benchmark workload through the library's public
   calls (see perfbench/README.md, "The traced run").

     layers.exe KIND INPUT OUT.json [--plain] [--domains N]
       [--checkpoint-every N] [--sample N] [--ci-width X] [--workers N]
       [--workdir DIR]

   KIND is the executor the workload drives: [exact] (Diameter.measure at
   one domain), [ckpt] (the checkpointed pool driver), [sampled] (the
   streamed Diameter_est run) or [fleet] (the shard coordinator). Every
   call into a layer is wrapped in a span (name, start, end, parent,
   minor words, domain) kept in memory and written to OUT.json at the
   end, together with the curves, the diameter, and the exact counts of a
   counting pass that runs after the timed part. [--plain] runs the same
   calls with spans off and no counting pass: the traced/plain wall ratio
   is the tracing overhead.

   The fleet kind re-executes this binary as its shard workers, so
   [layers.exe worker --id=N --connect ADDR] serves them exactly like
   [omn worker]. *)

module Trace = Omn_temporal.Trace
module Journey = Omn_core.Journey
module Frontier = Omn_core.Frontier
module Delay_cdf = Omn_core.Delay_cdf
module Diameter = Omn_core.Diameter
module Diameter_est = Omn_core.Diameter_est
module Pool = Omn_parallel.Pool
module Coord = Omn_shard.Coord
module Json = Omn_obs.Json
module Metrics = Omn_obs.Metrics
module Timeline = Omn_obs.Timeline
module Err = Omn_robust.Err

let max_hops = 10
let epsilon = 0.01
let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("layers: " ^ msg); exit 1) fmt
let ok_or what = function Ok v -> v | Error e -> die "%s: %s" what (Err.to_string e)

(* --- spans --- *)

type span = {
  id : int;
  name : string;
  parent : int;
  t0 : float;
  t1 : float;
  words : float;  (* minor words allocated on [dom] between t0 and t1 *)
  dom : int;
}

let tracing = ref true
let next_id = Atomic.make 1
let spans = ref []
let spans_lock = Mutex.create ()
let root = 0

(* [f] receives the new span's id, to pass as [~parent] to nested spans.
   The record is allocated after the end readings, so a span's own
   bookkeeping lands in its parent's words, never in its own. *)
let span ~parent name f =
  if not !tracing then f parent
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f id in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let s = { id; name; parent; t0; t1; words = w1 -. w0; dom = (Domain.self () :> int) } in
    Mutex.protect spans_lock (fun () -> spans := s :: !spans);
    r
  end

(* --- the per-source unit of work, as Delay_cdf's batch driver does it --- *)

type accs = { hops : Delay_cdf.t array; flood : Delay_cdf.t; rounds : int }

let fresh_accs ~grid =
  {
    hops = Array.init max_hops (fun _ -> Delay_cdf.create ~grid);
    flood = Delay_cdf.create ~grid;
    rounds = 0;
  }

let add_frontiers acc ~windows ~source frontiers =
  Array.iteri
    (fun dest frontier ->
      if dest <> source then
        List.iter
          (fun (t_start, t_end) -> Delay_cdf.add_pair_frontier acc ~t_start ~t_end frontier)
          windows)
    frontiers

(* [Journey.run] with the accumulation inside [on_round], then the
   post-fixpoint hop bounds and the flooding curve: the float operations
   of [Delay_cdf.compute]'s per-source task, in the same order. *)
let source_work ~parent ~grid ~windows trace source =
  let a = span ~parent "delay_cdf.accumulate" (fun _ -> fresh_accs ~grid) in
  let frontiers, rounds =
    span ~parent "journey" (fun jid ->
        let on_round (info : Journey.round_info) =
          if info.hop <= max_hops then
            span ~parent:jid "delay_cdf.accumulate" (fun _ ->
                add_frontiers a.hops.(info.hop - 1) ~windows ~source info.frontiers)
        in
        Journey.run ~on_round trace ~source)
  in
  span ~parent "delay_cdf.accumulate" (fun _ ->
      for k = rounds + 1 to max_hops do
        add_frontiers a.hops.(k - 1) ~windows ~source frontiers
      done;
      add_frontiers a.flood ~windows ~source frontiers);
  { a with rounds }

let merge_accs ~into a =
  Array.iteri (fun i acc -> Delay_cdf.merge_into ~dst:into.hops.(i) acc) a.hops;
  Delay_cdf.merge_into ~dst:into.flood a.flood;
  { into with rounds = max into.rounds a.rounds }

let curves_of ~grid a : Delay_cdf.curves =
  {
    grid = Array.copy grid;
    hop_success = Array.map Delay_cdf.success a.hops;
    hop_success_inf = Array.map Delay_cdf.success_inf a.hops;
    flood_success = Delay_cdf.success a.flood;
    flood_success_inf = Delay_cdf.success_inf a.flood;
    max_rounds_used = a.rounds;
  }

(* The delay grid every diameter / delay-cdf command derives from the
   trace span. *)
let grid_of trace =
  let span = Trace.span trace in
  Omn_stats.Grid.logarithmic ~lo:(Float.max 1. (span /. 5000.)) ~hi:span ~n:100

let windows_of trace = [ (Trace.t_start trace, Trace.t_end trace) ]

(* --- ingestion --- *)

let load_file path = fst (ok_or "load" (Omn_temporal.Trace_io.load_result path))

(* The streaming reader split at its layer boundary: the chunked parse
   (fold into a growable array, as [Trace_stream.load_result] collects)
   and the index build over the parsed contacts. *)
let load_stream ~parent path =
  let contacts, summary =
    span ~parent "ingest" (fun _ ->
        let arr = ref [||] and len = ref 0 in
        let f () c =
          if !len = Array.length !arr then begin
            let na = Array.make (max 1024 (2 * !len)) c in
            Array.blit !arr 0 na 0 !len;
            arr := na
          end;
          !arr.(!len) <- c;
          incr len
        in
        let (), summary = ok_or "ingest" (Omn_temporal.Trace_stream.fold_result ~init:() ~f path) in
        (Array.sub !arr 0 !len, summary))
  in
  span ~parent "index" (fun _ ->
      let s = summary in
      ok_or "index"
        (Trace.create_array_result ~name:s.Omn_temporal.Trace_stream.s_name
           ~n_nodes:s.s_n_nodes ~t_start:(fst s.s_window) ~t_end:(snd s.s_window) contacts))

(* --- workload kinds --- *)

type opts = {
  domains : int;
  every : int;
  sample : int;
  ci_width : float;
  workers : int;
  workdir : string;
}

type outcome = {
  trace : Trace.t;
  curves : Delay_cdf.curves;
  diameter : int option;
  sources : int list;  (* the sources whose journeys the command ran *)
  extra : unit -> (string * Json.t) list;  (* called after the timed part *)
}

let run_exact input =
  let trace = span ~parent:root "ingest" (fun _ -> load_file input) in
  let grid = grid_of trace and windows = windows_of trace in
  let n = Trace.n_nodes trace in
  let total = span ~parent:root "merge" (fun _ -> ref (fresh_accs ~grid)) in
  for source = 0 to n - 1 do
    let a = source_work ~parent:root ~grid ~windows trace source in
    span ~parent:root "merge" (fun _ -> total := merge_accs ~into:!total a)
  done;
  let curves = span ~parent:root "merge" (fun _ -> curves_of ~grid !total) in
  let diameter =
    span ~parent:root "diameter.of_curves" (fun _ -> Diameter.of_curves ~epsilon curves)
  in
  { trace; curves; diameter; sources = List.init n Fun.id; extra = (fun () -> []) }

(* [Delay_cdf.compute_resumable]'s loop: stride order, chunks of
   [every] sources through one pool, ordered merge, then an atomic,
   rotated checkpoint of the accumulator state after every chunk. The
   snapshot holds the fields the driver's own snapshot holds. *)
let ckpt_magic = "omn-ckpt 3\n"

let run_ckpt o input =
  let trace = span ~parent:root "ingest" (fun _ -> load_file input) in
  let grid = grid_of trace and windows = windows_of trace in
  let n = Trace.n_nodes trace in
  let pool = span ~parent:root "pool" (fun _ -> Pool.create ~domains:o.domains ()) in
  let order = Delay_cdf.uniform_order (List.init n Fun.id) in
  let path = Filename.concat o.workdir "layers.ckpt" in
  let fp =
    span ~parent:root "checkpoint" (fun _ ->
        Digest.to_hex
          (Digest.string
             (Marshal.to_string
                ( Trace.name trace, n, Trace.t_start trace, Trace.t_end trace,
                  Trace.contacts trace, max_hops, grid, Array.make n true, windows, order,
                  o.every )
                [])))
  in
  let total = span ~parent:root "merge" (fun _ -> ref (fresh_accs ~grid)) in
  let writes = ref 0 and bytes = ref 0 and done_ = ref 0 in
  let rec loop = function
    | [] -> ()
    | rest ->
      let chunk = List.filteri (fun i _ -> i < o.every) rest in
      let rest = List.filteri (fun i _ -> i >= o.every) rest in
      let results =
        span ~parent:root "pool" (fun pid ->
            Pool.map pool (source_work ~parent:pid ~grid ~windows trace) (Array.of_list chunk))
      in
      span ~parent:root "merge" (fun _ ->
          Array.iter (fun a -> total := merge_accs ~into:!total a) results);
      done_ := !done_ + List.length chunk;
      span ~parent:root "checkpoint" (fun _ ->
          let t = !total in
          Omn_robust.Checkpoint.save ~magic:ckpt_magic ~path
            (Marshal.to_string
               (fp, !done_, t.hops, t.flood, t.rounds, ([] : (int * int * string) list))
               []));
      incr writes;
      bytes := !bytes + (Unix.stat path).Unix.st_size;
      loop rest
  in
  loop order;
  span ~parent:root "checkpoint" (fun _ -> Omn_robust.Checkpoint.remove path);
  span ~parent:root "pool" (fun _ -> Pool.shutdown pool);
  let curves = span ~parent:root "merge" (fun _ -> curves_of ~grid !total) in
  let diameter =
    span ~parent:root "diameter.of_curves" (fun _ -> Diameter.of_curves ~epsilon curves)
  in
  {
    trace;
    curves;
    diameter;
    sources = order;
    extra =
      (fun () ->
        [ ("checkpoint.writes", Json.Int !writes); ("checkpoint.bytes", Json.Int !bytes) ]);
  }

(* The sampled estimator with every per-source partial built by
   [source_work] and passed through the partial codec. The first one is
   compared byte for byte with [Delay_cdf.source_partial]'s encoding
   ([sampled_guard], computed before the timed part), so a replay that
   drifted from the library, or a partial layout change, stops the run
   before anything is decoded. *)
let partial_magic = "omn-partial 1\n"

let sampled_guard input =
  let trace = fst (ok_or "load" (Omn_temporal.Trace_stream.load_result input)) in
  (* the estimator's first source: position 0 of its (seed-0) stride order *)
  let first = List.hd (Delay_cdf.uniform_order (List.init (Trace.n_nodes trace) Fun.id)) in
  let p =
    Delay_cdf.source_partial ~max_hops ~grid:(grid_of trace) ~windows:(windows_of trace) trace
      first
  in
  (first, Delay_cdf.partial_to_string p)

let run_sampled o ~guard:(first, expected) input =
  let trace = load_stream ~parent:root input in
  let grid = grid_of trace and windows = windows_of trace in
  let sampled = ref [] and partial_bytes = ref 0 in
  let partials_of ~parent batch =
    List.map
      (fun source ->
        let a = source_work ~parent ~grid ~windows trace source in
        let s =
          span ~parent "codec.encode" (fun _ ->
              partial_magic ^ Marshal.to_string (a.hops, a.flood, a.rounds) [])
        in
        if source = first && s <> expected then
          die "replayed partial of source %d differs from the library's" source;
        sampled := source :: !sampled;
        partial_bytes := !partial_bytes + String.length s;
        span ~parent "codec.decode" (fun _ ->
            match Delay_cdf.partial_of_string s with Ok p -> p | Error m -> die "decode: %s" m))
      batch
  in
  let est =
    span ~parent:root "diameter_est" (fun eid ->
        ok_or "estimate"
          (Diameter_est.estimate ~epsilon ~max_hops ~sample:o.sample ~seed:0
             ~ci_width:o.ci_width ~confidence:0.9 ~bootstrap:200 ~grid ~domains:1
             ~clock:Unix.gettimeofday ~partials_of:(partials_of ~parent:eid) trace))
  in
  {
    trace;
    curves = est.Diameter_est.curves;
    diameter = est.diameter;
    sources = List.rev !sampled;
    extra =
      (fun () ->
        [
          ("diameter_est.sampled", Json.Int est.sampled);
          ("diameter_est.rounds", Json.Int est.rounds);
          ("codec.partial_bytes", Json.Int !partial_bytes);
        ]);
  }

(* The shard coordinator is one opaque call: its layers are read from
   its stats, the workers' pulled timelines, and the partials it hands
   back. Codec and merge costs are measured after the call, on those
   same partials in slot order, and the merge is checked against the
   coordinator's curves. *)
let run_fleet o input =
  let trace = span ~parent:root "ingest" (fun _ -> load_file input) in
  let grid = grid_of trace in
  let got = ref [] and first_partial_at = ref 0. in
  let cfg =
    {
      (Coord.default ~workers:o.workers) with
      listen = Some (Omn_shard.Transport.Tcp ("127.0.0.1", 0));
      auth_key = Sys.getenv_opt "OMN_SHARD_KEY";
      telemetry = true;
      on_partial =
        Some
          (fun s p ->
            if !got = [] then first_partial_at := now ();
            got := (s, p) :: !got);
    }
  in
  let t_start = now () in
  let curves, progress, stats =
    span ~parent:root "shard" (fun _ -> ok_or "shard" (Coord.run ~max_hops ~grid cfg trace))
  in
  let t_end = now () in
  if progress.Delay_cdf.partial || progress.degraded <> [] then die "shard run incomplete";
  let partials = List.rev !got in
  let extra () =
    (* worker-side compute spans, moved onto this process's clock *)
    let computes =
      List.concat_map
        (fun (t : Coord.telemetry) ->
          List.filter_map
            (fun (_, (e : Timeline.entry)) ->
              match e.ev with
              | Shard_compute { start; _ } -> Some (start -. t.tw_offset, e.ts -. t.tw_offset)
              | _ -> None)
            t.tw_events)
        stats.fleet
    in
    let busy = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. computes in
    let first_compute = List.fold_left (fun acc (a, _) -> Float.min acc a) infinity computes in
    let timed f =
      let t0 = now () in
      let r = f () in
      (r, now () -. t0)
    in
    let encoded, encode_s =
      timed (fun () -> List.map (fun (_, p) -> Delay_cdf.partial_to_string p) partials)
    in
    let decoded, decode_s =
      timed (fun () ->
          List.map
            (fun s ->
              match Delay_cdf.partial_of_string s with Ok p -> p | Error m -> die "%s" m)
            encoded)
    in
    let merged, merge_s =
      timed (fun () ->
          let m = Delay_cdf.merger_create ~max_hops ~grid () in
          List.iter (Delay_cdf.merger_add m) decoded;
          Delay_cdf.merger_curves m)
    in
    if merged <> curves then
      die "slot-order merge of the fleet's partials differs from its curves";
    let wall = t_end -. t_start in
    Json.
      [
        ("shard.ready_s", Float (if computes = [] then 0. else first_compute -. t_start));
        ("shard.worker_compute_s", Float busy);
        ( "shard.idle_frac",
          Float (1. -. (busy /. (float_of_int o.workers *. Float.max wall 1e-9))) );
        ("shard.trace_ship_bytes", Int stats.trace_ship_bytes);
        ("shard.merge_tail_s", Float (if partials = [] then 0. else t_end -. !first_partial_at));
        ("shard.workers_reporting", Int (List.length stats.fleet));
        ("codec.encode_s", Float encode_s);
        ("codec.decode_s", Float decode_s);
        ( "codec.partial_bytes",
          Int (List.fold_left (fun acc s -> acc + String.length s) 0 encoded) );
        ("merge.s", Float merge_s);
      ]
  in
  { trace; curves; diameter = None; sources = List.map fst partials; extra }

(* --- counting pass: exact work counts, outside the timed part --- *)

let counting_pass trace sources =
  let n = Trace.n_nodes trace and m = Trace.n_contacts trace in
  Metrics.reset ();
  Metrics.set_enabled true;
  let rounds = ref 0 and scanned = ref 0 and delta = ref 0 in
  let changed_nodes = ref 0 and node_rounds = ref 0 in
  let added = ref 0 and final_size = ref 0 and pairs = ref 0 in
  let prev = Array.init n (fun _ -> Frontier.create ()) in
  let sizes ~source frontiers =
    let s = ref 0 in
    Array.iteri (fun d f -> if d <> source then s := !s + Frontier.size f) frontiers;
    !s
  in
  List.iter
    (fun source ->
      Array.iter Frontier.clear prev;
      let on_round (info : Journey.round_info) =
        delta := !delta + info.changed;
        Array.iteri
          (fun d f ->
            if not (Frontier.equal f prev.(d)) then begin
              incr changed_nodes;
              Frontier.copy_into ~src:f ~dst:prev.(d)
            end)
          info.frontiers;
        node_rounds := !node_rounds + n;
        if info.hop <= max_hops then added := !added + sizes ~source info.frontiers
      in
      let frontiers, r = Journey.run ~on_round trace ~source in
      rounds := !rounds + r;
      scanned := !scanned + (2 * m * r);
      let s = sizes ~source frontiers in
      added := !added + (s * (max 0 (max_hops - r) + 1));
      final_size := !final_size + s;
      pairs := !pairs + (n - 1))
    sources;
  let snap = Metrics.snapshot () in
  Metrics.set_enabled false;
  let count name = Option.value (Metrics.counter_total snap name) ~default:0 in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let kept = count "frontier.points_kept" and pruned = count "frontier.points_pruned" in
  Json.
    [
      ("journey.rounds", Int !rounds);
      ("journey.contacts_scanned", Int !scanned);
      ("journey.delta_descriptors", Int !delta);
      ("journey.changed_node_frac", Float (ratio !changed_nodes !node_rounds));
      ("frontier.points_kept", Int kept);
      ("frontier.points_pruned", Int pruned);
      ("frontier.keep_ratio", Float (ratio kept (kept + pruned)));
      ("frontier.mean_size", Float (ratio !final_size !pairs));
      ("delay_cdf.descriptors_added", Int !added);
      ("pairs", Int !pairs);
    ]

(* The index build of a file-loaded trace happens inside
   [Trace_io.load_result]; it is timed here on a copy of the parsed
   contacts so the ingest span can be split into parse and index. *)
let index_side_pass trace =
  let contacts = Array.copy (Trace.contacts trace) in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let (_ : Trace.t) =
    ok_or "index"
      (Trace.create_array_result ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
         ~t_start:(Trace.t_start trace) ~t_end:(Trace.t_end trace) contacts)
  in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  Json.[ ("index.side_s", Float (t1 -. t0)); ("index.side_words", Float (w1 -. w0)) ]

(* --- output --- *)

let farr a = Json.List (Array.to_list (Array.map (fun v -> Json.Float v) a))

let curve_fields (c : Delay_cdf.curves) =
  Json.
    [
      ("grid", farr c.grid);
      ("hop_success", List (Array.to_list (Array.map farr c.hop_success)));
      ("hop_success_inf", farr c.hop_success_inf);
      ("flood_success", farr c.flood_success);
      ("flood_success_inf", Float c.flood_success_inf);
      ("max_rounds_used", Int c.max_rounds_used);
    ]

let span_json s =
  Json.(
    List
      [ Int s.id; String s.name; Int s.parent; Float s.t0; Float s.t1; Float s.words; Int s.dom ])

let worker_main () =
  let id = ref (-1) and connect = ref None in
  Array.iteri
    (fun i a ->
      if String.length a > 5 && String.sub a 0 5 = "--id=" then
        id := int_of_string (String.sub a 5 (String.length a - 5))
      else if a = "--connect" && i + 1 < Array.length Sys.argv then
        connect := Some Sys.argv.(i + 1))
    Sys.argv;
  match !connect with
  | None -> die "worker: need --connect ADDR"
  | Some a -> (
    let addr = ok_or "worker" (Omn_shard.Transport.parse a) in
    match
      Omn_shard.Worker.main ~worker:!id ~mode:(Omn_shard.Worker.Dial addr)
        ?auth_key:(Sys.getenv_opt "OMN_SHARD_KEY") ()
    with
    | Ok () -> exit 0
    | Error e -> die "worker: %s" (Err.to_string e))

(* [layers.exe ring N W]: the worker each of N sources is dispatched to
   on a W-worker fleet with the coordinator's default ring. *)
let ring_main () =
  let n = int_of_string Sys.argv.(2) and w = int_of_string Sys.argv.(3) in
  let ring = Omn_shard.Ring.create ~vnodes:(Coord.default ~workers:w).vnodes ~workers:w () in
  let alive = List.init w Fun.id in
  for s = 0 to n - 1 do
    Printf.printf "%d\n" (Omn_shard.Ring.assign ring ~alive s)
  done;
  exit 0

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then worker_main ();
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "ring" then ring_main ();
  let plain = ref false and domains = ref 1 and every = ref 8 and sample = ref 4 in
  let ci_width = ref 1. and workers = ref 2 and workdir = ref "." in
  let pos = ref [] in
  Arg.parse
    [
      ("--plain", Arg.Set plain, " spans off, no counting pass");
      ("--domains", Arg.Set_int domains, "N pool size (ckpt)");
      ("--checkpoint-every", Arg.Set_int every, "N sources per chunk (ckpt)");
      ("--sample", Arg.Set_int sample, "N initial sample (sampled)");
      ("--ci-width", Arg.Set_float ci_width, "X CI width target (sampled)");
      ("--workers", Arg.Set_int workers, "N shard workers (fleet)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
    ]
    (fun a -> pos := !pos @ [ a ])
    "layers.exe KIND INPUT OUT.json [options]";
  let kind, input, out =
    match !pos with [ k; i; o ] -> (k, i, o) | _ -> die "usage: KIND INPUT OUT.json"
  in
  let o =
    {
      domains = !domains;
      every = !every;
      sample = !sample;
      ci_width = !ci_width;
      workers = !workers;
      workdir = !workdir;
    }
  in
  tracing := not !plain;
  let guard = if kind = "sampled" then Some (sampled_guard input) else None in
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let r =
    match kind with
    | "exact" -> run_exact input
    | "ckpt" -> run_ckpt o input
    | "sampled" -> run_sampled o ~guard:(Option.get guard) input
    | "fleet" -> run_fleet o input
    | k -> die "unknown kind %S" k
  in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  tracing := false;
  let counts =
    if !plain then []
    else
      r.extra ()
      @ counting_pass r.trace r.sources
      @ if kind = "sampled" then [] else index_side_pass r.trace
  in
  let root_span = { id = root; name = "run"; parent = -1; t0; t1; words = w1 -. w0; dom = 0 } in
  let json =
    Json.Obj
      Json.
        [
          ("kind", String kind);
          ("run_id", String (Printf.sprintf "%d-%.6f" (Unix.getpid ()) t0));
          ("plain", Bool !plain);
          ("wall_s", Float (t1 -. t0));
          ("trace_nodes", Int (Trace.n_nodes r.trace));
          ("trace_contacts", Int (Trace.n_contacts r.trace));
          ( "diameter",
            match if kind = "fleet" then Diameter.of_curves ~epsilon r.curves else r.diameter with
            | Some d -> Int d
            | None -> Null );
          ("spans", List (List.map span_json (root_span :: List.rev !spans)));
          ("counts", Obj counts);
          ("curves", Obj (curve_fields r.curves));
        ]
  in
  Omn_robust.Atomic_file.write_string out (Json.to_string json ^ "\n")
