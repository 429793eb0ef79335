(* Differential oracle: the fast frontier pipeline vs the exhaustive
   baselines, on hundreds of randomly generated small traces.

   Two independent oracles per instance:
   - hop-bounded: [Journey.frontiers_at_hops] must equal
     [Baseline.Enumerate.frontiers] (exponential DFS over all valid
     contact sequences) frontier-by-frontier;
   - fixpoint: [Frontier.delivery] read off [Journey.run]'s fixpoint must
     equal [Baseline.Dijkstra.earliest_arrival] at every sampled creation
     time, for every destination.

   Traces are drawn from four generator families (integer-grid random
   intervals, Poisson point contacts, random-waypoint motion, venue
   co-location) so the oracle sees ties, instantaneous contacts, long
   overlapping intervals and transitive crowds. A fifth family, float-
   timed same-pair slot runs, is checked against the enumeration at
   every hop bound up to the fixpoint. Every instance is keyed
   by its seed, which is printed on failure for replay; the batch runs
   under a 2-domain pool, as the pipeline does in production. *)

module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Journey = Omn_core.Journey
module Frontier = Omn_core.Frontier
module Enumerate = Omn_baseline.Enumerate
module Dijkstra = Omn_baseline.Dijkstra

let n_instances = 200
let max_contacts = 16 (* keeps Enumerate's DFS trivially small *)
let max_hops = 3

let cap_contacts trace =
  let cs = Trace.contacts trace in
  if Array.length cs <= max_contacts then trace
  else
    Trace.create ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
      ~t_start:(Trace.t_start trace) ~t_end:(Trace.t_end trace)
      (Array.to_list (Array.sub cs 0 max_contacts))

let instance seed =
  let rng = Rng.create seed in
  match seed mod 4 with
  | 0 ->
    Util.random_trace rng ~n:(3 + Rng.int rng 4) ~m:(4 + Rng.int rng 11) ~horizon:20
  | 1 ->
    cap_contacts
      (Omn_randnet.Continuous.generate rng
         { n = 3 + Rng.int rng 3; lambda = 0.4; horizon = 10. })
  | 2 ->
    cap_contacts
      (Omn_mobility.Random_waypoint.generate rng
         {
           n = 4;
           area = 120.;
           v_min = 0.5;
           v_max = 1.5;
           mean_pause = 10.;
           range = 40.;
           horizon = 300.;
           dt = 5.;
         })
  | _ ->
    let n = 4 in
    let params = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.1 in
    cap_contacts (Omn_mobility.Venue.generate rng ~n ~name:"diff-venue" params)

(* Creation times to probe the fixpoint at: window edges, outside the
   window on both sides, and a few contact boundaries. *)
let sample_t0s trace =
  let t0 = Trace.t_start trace and t1 = Trace.t_end trace in
  let base = [ t0 -. 1.; t0; (t0 +. t1) /. 2.; t1; t1 +. 1. ] in
  let cs = Trace.contacts trace in
  let extra =
    if Array.length cs = 0 then []
    else
      [
        cs.(0).Omn_temporal.Contact.t_beg;
        cs.(Array.length cs - 1).Omn_temporal.Contact.t_end;
      ]
  in
  base @ extra

let check_instance seed =
  let trace = instance seed in
  let n = Trace.n_nodes trace in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for source = 0 to n - 1 do
    (* Oracle 1: hop-bounded frontiers vs exhaustive enumeration. *)
    let fast = Journey.frontiers_at_hops trace ~source ~max_hops in
    let exact = Enumerate.frontiers trace ~source ~max_hops in
    Array.iteri
      (fun dest f ->
        if not (Frontier.equal f exact.(dest)) then
          err "seed %d: frontier mismatch (source %d, dest %d, max_hops %d)" seed source
            dest max_hops)
      fast;
    (* Oracle 2: fixpoint delivery vs single-t0 earliest-arrival search. *)
    let fix, _rounds = Journey.run trace ~source in
    List.iter
      (fun t0 ->
        let arrival = Dijkstra.earliest_arrival trace ~source ~t0 in
        for v = 0 to n - 1 do
          let d = Frontier.delivery fix.(v) t0 in
          let a = arrival.(v) in
          if not (d = a || (d = infinity && a = infinity)) then
            err "seed %d: delivery %.17g <> dijkstra %.17g (source %d, dest %d, t0 %.17g)"
              seed d a source v t0
        done)
      (sample_t0s trace)
  done;
  !errs

(* Same-pair slot runs: the shape of presets sampled on a slot grid,
   where one pair meets in several consecutive slots. Contacts come in
   three kinds, all on a float-timed grid ([slot] is never an integer):
   runs of consecutive touching contacts of one pair (the end of one is
   bit-equal to the start of the next), bursts of several pairs sharing
   a start time, and zero-length contacts. The journey's case-(b) skip
   acts exactly on repeated same-pair contacts, so this family pins it. *)
let slot_contacts = 16

let slot_run_instance seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 5 in
  let slot = Rng.float_range rng 0.6 1.9 and t0 = Rng.float_range rng 0.1 0.9 in
  let at k = t0 +. (float_of_int k *. slot) in
  let n_slots = 12 in
  let pair () =
    let a = Rng.int rng n in
    let b = (a + 1 + Rng.int rng (n - 1)) mod n in
    (min a b, max a b)
  in
  let contacts = ref [] and made = ref 0 in
  let add (a, b) t_beg t_end =
    if !made < slot_contacts then begin
      contacts := (a, b, t_beg, t_end) :: !contacts;
      incr made
    end
  in
  while !made < slot_contacts do
    let s = Rng.int rng n_slots in
    match Rng.int rng 3 with
    | 0 ->
      let p = pair () in
      for k = s to min (n_slots - 1) (s + Rng.int rng 4) do
        add p (at k) (at (k + 1))
      done
    | 1 ->
      for _ = 1 to 2 + Rng.int rng 2 do
        add (pair ()) (at s) (at (s + Rng.int rng 3))
      done
    | _ ->
      let t = if Rng.bool rng then at s else Rng.float_range rng (at 0) (at n_slots) in
      add (pair ()) t t
  done;
  Util.trace_of_contacts ~n_nodes:n ~t_start:0. ~t_end:(at (n_slots + 1)) !contacts

(* Every hop bound from 1 to the fixpoint round, for every source. *)
let check_slot_run seed =
  let trace = slot_run_instance seed in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for source = 0 to Trace.n_nodes trace - 1 do
    let fix, rounds = Journey.run trace ~source in
    for k = 1 to max 1 rounds do
      let fast = Journey.frontiers_at_hops trace ~source ~max_hops:k in
      let exact = Enumerate.frontiers trace ~source ~max_hops:k in
      Array.iteri
        (fun dest f ->
          if not (Frontier.equal f exact.(dest)) then
            err "seed %d: frontier mismatch (source %d, dest %d, max_hops %d)" seed source
              dest k;
          if k = rounds && not (Frontier.equal fix.(dest) exact.(dest)) then
            err "seed %d: fixpoint mismatch (source %d, dest %d, %d rounds)" seed source dest
              rounds)
        fast
    done
  done;
  !errs

(* Check [count] instances seeded from [first_seed] under a 2-domain
   pool; fail with the first disagreement. *)
let run_family check ~first_seed ~count =
  let errs =
    Omn_parallel.Pool.with_pool ~domains:2 (fun pool ->
        Omn_parallel.Pool.map pool check (Array.init count (fun i -> first_seed + i)))
    |> Array.to_list |> List.concat
  in
  match errs with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d disagreement(s) across %d instances; first: %s" (List.length errs)
      count first

let test_differential () = run_family check_instance ~first_seed:7000 ~count:n_instances
let test_slot_runs () = run_family check_slot_run ~first_seed:9000 ~count:400

(* The generator families themselves must produce what the oracles
   assume: a quick well-formedness pass over a sample of each family. *)
let test_families_well_formed () =
  List.iter
    (fun seed ->
      let trace = instance seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: at least 2 nodes" seed)
        true
        (Trace.n_nodes trace >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: capped" seed)
        true
        (Trace.n_contacts trace <= max_contacts || seed mod 4 = 0);
      Trace.iter
        (fun c ->
          let open Omn_temporal.Contact in
          if not (c.t_beg >= Trace.t_start trace && c.t_end <= Trace.t_end trace) then
            Alcotest.failf "seed %d: contact outside window" seed)
        trace)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let suite =
  [
    Alcotest.test_case "generator families well-formed" `Quick test_families_well_formed;
    Alcotest.test_case "journey vs enumerate vs dijkstra (200 instances)" `Slow
      test_differential;
    Alcotest.test_case "slot runs: journey vs enumerate, every hop bound to the fixpoint" `Slow
      test_slot_runs;
  ]
