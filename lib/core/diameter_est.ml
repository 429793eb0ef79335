module Trace = Omn_temporal.Trace
module Metrics = Omn_obs.Metrics
module Timeline = Omn_obs.Timeline
module Err = Omn_robust.Err
module Checkpoint = Omn_robust.Checkpoint

let m_rounds = Metrics.counter "sample.rounds"
let m_sampled = Metrics.counter "sample.sources_sampled"
let m_boot = Metrics.counter "sample.bootstrap_resamples"
let g_width = Metrics.gauge "sample.ci_width"

type estimate = {
  diameter : int option;
  epsilon : float;
  curves : Delay_cdf.curves;
  ci_lo : int option;
  ci_hi : int option;
  confidence : float;
  ci_width : float;
  sampled : int;
  total : int;
  rounds : int;
  exhaustive : bool;
  partial : bool;
  ckpt_fallback : bool;
}

(* Test hook (see the statistical coverage suite): a perturbation is
   applied to {e every} diameter the estimator derives from a curve
   set — the point estimate and each bootstrap replicate — so a
   deliberately broken estimator shifts its CI wholesale instead of
   silently re-centering around the biased point. *)
let perturb : (int option -> int option) option ref = ref None
let set_perturb f = perturb := f

type snapshot = {
  snap_fingerprint : string;
  snap_rounds : int;
  snap_partials : string array;  (* [partial_to_string], rotated-order prefix *)
}

let ckpt_magic = "omn-est 1\n"

(* Rotating the stride order by the seed keeps every prefix a
   near-uniform sample (the stride property is rotation-invariant)
   while giving distinct seeds genuinely different samples — which is
   what the coverage test needs to observe the CI's sampling
   distribution. *)
let rotate l k =
  let n = max 1 (List.length l) in
  let head, tail = Omn_parallel.Chunk.split_at (((k mod n) + n) mod n) l in
  tail @ head

let estimate ?(epsilon = 0.01) ?(max_hops = 10) ?(sample = 64) ?(seed = 0) ?(ci_width = 1.)
    ?(confidence = 0.9) ?(bootstrap = 200) ?sources ?dests ?grid ?pool ?domains ?windows
    ?checkpoint ?(resume = false) ?budget_seconds ?clock ?report ?partials_of trace =
  let usage msg = Err.error Err.Usage ("Diameter_est.estimate: " ^ msg) in
  if sample < 1 then usage "sample must be at least 1"
  else if ci_width <= 0. then usage "ci-width must be positive"
  else if epsilon <= 0. || epsilon >= 1. then usage "epsilon out of (0,1)"
  else if confidence <= 0. || confidence >= 1. then usage "confidence out of (0,1)"
  else if bootstrap < 1 then usage "bootstrap must be at least 1"
  else
    let executor =
      Option.map (fun f sources -> Array.of_list (List.map Result.ok (f sources))) partials_of
    in
    Delay_cdf.run_plan ~max_hops ?sources ?dests ?grid ?pool ?domains ?windows ?budget_seconds
      ?clock ?executor trace
    @@ fun plan ->
    let total = List.length plan.order in
    if total = 0 then invalid_arg "Diameter_est.estimate: empty source list";
    (* Rotated stride order: the sampled prefix grows round by round
       without ever discarding a computed partial. *)
    let all = Option.value sources ~default:(List.init (Trace.n_nodes trace) Fun.id) in
    let order = Array.of_list (rotate (Delay_cdf.uniform_order all) seed) in
    (* Position of each source in the plan order — the point estimate
       merges partials in this order so that the exhaustive case
       replays [Delay_cdf.compute]'s exact merge sequence
       (bit-identity contract). *)
    let pos_of = Hashtbl.create total in
    List.iteri (fun i s -> Hashtbl.replace pos_of s i) plan.order;
    (* Digested only when a checkpoint is read or written. *)
    let fp =
      lazy
        (Digest.to_hex
           (Digest.string
              (Marshal.to_string
                 ( Trace.name trace, Trace.n_nodes trace, Trace.t_start trace, Trace.t_end trace,
                   Trace.contacts trace, max_hops, plan.budget_grid, plan.is_dest, windows, order,
                   epsilon, seed, confidence, bootstrap, ci_width, sample )
                 [])))
    in
    let rounds0, partials0, ckpt_fallback =
      match checkpoint with
      | None -> (0, [||], false)
      | Some path -> (
        let decode s =
          match Delay_cdf.partial_of_string s with
          | Ok p -> p
          | Error msg ->
            Err.get_exn (Err.error ~file:path Err.Checkpoint ("bad stored partial: " ^ msg))
        in
        match
          Delay_cdf.load_snapshot ~magic:ckpt_magic ~fp:(Lazy.force fp)
            ~fp_of:(fun s -> s.snap_fingerprint)
            ~resume path
        with
        | None -> (0, [||], false)
        | Some (snap, fallback) ->
          (snap.snap_rounds, Array.map decode snap.snap_partials, fallback))
    in
    (* The computed partials: always a prefix of the rotated order. *)
    let partials = ref partials0 in
    let extend k =
      let stored = Array.length !partials in
      if k > stored then begin
        let batch = List.init (k - stored) (fun i -> order.(stored + i)) in
        partials := Array.append !partials (Array.map Result.get_ok (plan.batch batch));
        Metrics.add m_sampled (k - stored)
      end
    in
    let sentinel = max_hops + 1 in
    let to_sent = function Some k -> k | None -> sentinel in
    let of_sent k = if k > max_hops then None else Some k in
    let diameter_of curves =
      let d = Diameter.of_curves ~epsilon curves in
      match !perturb with None -> d | Some f -> f d
    in
    (* Merge the given rotated-order positions (ascending plan
       position, so the full-sample merge is the exact-engine merge)
       and derive the (1-eps)-diameter. *)
    let curves_of_positions idxs =
      let m = Delay_cdf.merger_create ~max_hops ~grid:plan.budget_grid () in
      List.iter (fun i -> Delay_cdf.merger_add m !partials.(i)) idxs;
      Delay_cdf.merger_curves m
    in
    let by_plan_position idxs =
      List.sort
        (fun i j -> compare (Hashtbl.find pos_of order.(i)) (Hashtbl.find pos_of order.(j)))
        idxs
    in
    (* The checkpoint records {e completed} rounds: it is written after
       a round's convergence decision, so a killed-and-resumed run
       re-enters the doubling schedule exactly where an uninterrupted
       run would be (losing at most one round of partials). *)
    let save_after_round ~round =
      Option.iter
        (fun path ->
          Delay_cdf.save_snapshot ~magic:ckpt_magic path
            {
              snap_fingerprint = Lazy.force fp;
              snap_rounds = round;
              snap_partials = Array.map Delay_cdf.partial_to_string !partials;
            })
        checkpoint
    in
    let rec loop ~round ~k =
      extend k;
      let exhaustive = k = total in
      let curves = curves_of_positions (by_plan_position (List.init k (fun i -> i))) in
      let point = diameter_of curves in
      let ci_lo, ci_hi, width =
        if exhaustive then (point, point, 0.)
        else begin
          (* Percentile bootstrap over the sampled sources: resample
             [k] of them with replacement, re-merge, re-derive the
             diameter. [None] (no diameter within max_hops) sits at
             the sentinel [max_hops + 1] so it orders above every
             finite diameter. The interval is unioned with the point
             estimate so the reported CI always contains it. *)
          let rng = Omn_stats.Rng.create (seed lxor (round * 1_000_003)) in
          let ds =
            Array.init bootstrap (fun _ ->
                let draw = List.init k (fun _ -> Omn_stats.Rng.int rng k) in
                to_sent (diameter_of (curves_of_positions (by_plan_position draw))))
          in
          Metrics.add m_boot bootstrap;
          Array.sort compare ds;
          let alpha = 1. -. confidence in
          let b = bootstrap in
          let lo_i = int_of_float (Float.floor (alpha /. 2. *. float_of_int (b - 1))) in
          let hi_i = int_of_float (Float.ceil ((1. -. (alpha /. 2.)) *. float_of_int (b - 1))) in
          let lo = min ds.(lo_i) (to_sent point) in
          let hi = max ds.(hi_i) (to_sent point) in
          (of_sent lo, of_sent hi, float_of_int (hi - lo))
        end
      in
      Metrics.incr m_rounds;
      Metrics.set g_width width;
      Timeline.record (Sample_round { round; sampled = k; width });
      Option.iter (fun r -> r ~round ~sampled:k ~total ~width) report;
      let converged = exhaustive || width <= ci_width in
      let out_of_budget = plan.out_of_budget () in
      if converged || out_of_budget then begin
        let partial = (not converged) && out_of_budget in
        if partial then save_after_round ~round
        else Option.iter Checkpoint.remove checkpoint;
        {
          diameter = point;
          epsilon;
          curves;
          ci_lo;
          ci_hi;
          confidence;
          ci_width = width;
          sampled = k;
          total;
          rounds = round;
          exhaustive;
          partial;
          ckpt_fallback;
        }
      end
      else begin
        save_after_round ~round;
        loop ~round:(round + 1) ~k:(min total (2 * k))
      end
    in
    (* Resume continues the doubling schedule: a checkpoint holding the
       partials of round r restarts at round r+1 with twice the sample,
       exactly as the uninterrupted run would. *)
    let stored = Array.length partials0 in
    let k0 = if stored = 0 then min sample total else min total (2 * stored) in
    loop ~round:(rounds0 + 1) ~k:k0
