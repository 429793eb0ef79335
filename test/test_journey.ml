open Omn_core
module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace

let frontier_list f = Array.to_list (Frontier.to_array f)

(* --- Gold test 1: hop-bounded frontiers match exhaustive enumeration. --- *)

let check_against_enumeration trace ~max_hops =
  let n = Trace.n_nodes trace in
  for source = 0 to n - 1 do
    for hops = 1 to max_hops do
      let fast = Journey.frontiers_at_hops trace ~source ~max_hops:hops in
      let slow = Omn_baseline.Enumerate.frontiers trace ~source ~max_hops:hops in
      for dest = 0 to n - 1 do
        if not (Frontier.equal fast.(dest) slow.(dest)) then
          Alcotest.failf "source %d dest %d hops %d:@ fast %s@ slow %s" source dest hops
            (Format.asprintf "%a" Frontier.pp fast.(dest))
            (Format.asprintf "%a" Frontier.pp slow.(dest))
      done
    done
  done

let enumeration_gold () =
  let rng = Rng.create 42 in
  for _ = 1 to 150 do
    let n = 2 + Rng.int rng 4 in
    let m = 1 + Rng.int rng 7 in
    let trace = Util.random_trace rng ~n ~m ~horizon:12 in
    check_against_enumeration trace ~max_hops:4
  done

(* --- Gold test 2: fixpoint delivery matches the flooding oracle. --- *)

let flooding_gold () =
  let rng = Rng.create 7 in
  for _ = 1 to 25 do
    let n = 3 + Rng.int rng 6 in
    let m = 5 + Rng.int rng 25 in
    let trace = Util.random_trace rng ~n ~m ~horizon:50 in
    for source = 0 to n - 1 do
      let frontiers, _ = Journey.run trace ~source in
      let oracle = Omn_baseline.Flooding.compute trace ~source in
      for dest = 0 to n - 1 do
        if dest <> source then begin
          let delivery = Delivery.of_descriptors (Frontier.to_array frontiers.(dest)) in
          for _ = 1 to 40 do
            let t = Rng.float_range rng (-5.) 55. in
            Util.check_float
              (Printf.sprintf "del s=%d d=%d t=%g" source dest t)
              (Omn_baseline.Flooding.del oracle ~dest t)
              (Delivery.del delivery t)
          done;
          (* Exact boundary creation times too. *)
          Array.iter
            (fun (b, expected) ->
              Util.check_float
                (Printf.sprintf "boundary del s=%d d=%d t=%g" source dest b)
                expected (Delivery.del delivery b))
            (Omn_baseline.Flooding.samples oracle ~dest)
        end
      done
    done
  done

(* --- Gold test 3: hop-bounded delivery matches Bellman-Ford rounds. --- *)

let bounded_dijkstra_gold () =
  let rng = Rng.create 99 in
  for _ = 1 to 30 do
    let n = 3 + Rng.int rng 5 in
    let m = 4 + Rng.int rng 20 in
    let trace = Util.random_trace rng ~n ~m ~horizon:40 in
    let max_hops = 4 in
    for source = 0 to n - 1 do
      for _ = 1 to 10 do
        let t0 = Rng.float_range rng 0. 40. in
        let rows =
          Omn_baseline.Dijkstra.earliest_arrival_bounded trace ~source ~t0 ~max_hops
        in
        for hops = 1 to max_hops do
          let frontiers = Journey.frontiers_at_hops trace ~source ~max_hops:hops in
          for dest = 0 to n - 1 do
            if dest <> source then
              Util.check_float
                (Printf.sprintf "bounded s=%d d=%d k=%d t0=%g" source dest hops t0)
                rows.(hops).(dest)
                (Frontier.delivery frontiers.(dest) t0)
          done
        done
      done
    done
  done

(* --- Hand-crafted topologies. --- *)

(* A space-time line: contact (i, i+1) at time slot i. The only path from
   0 to k uses k contacts in chronological order (store-carry-forward). *)
let line_trace n =
  Util.trace_of_contacts
    (List.init (n - 1) (fun i -> (i, i + 1, float_of_int i, float_of_int i +. 0.5)))

let line_topology () =
  let n = 6 in
  let trace = line_trace n in
  let frontiers, rounds = Journey.run trace ~source:0 in
  Alcotest.(check int) "fixpoint rounds" (n - 1) rounds;
  (* Node k is reached at time k-1 (start of its last contact), provided
     departure by time 0.5 (end of the first contact). *)
  for dest = 1 to n - 1 do
    let f = frontier_list frontiers.(dest) in
    Alcotest.(check int) (Printf.sprintf "one optimal path to %d" dest) 1 (List.length f);
    let p = List.hd f in
    Util.check_float "ld" 0.5 p.Ld_ea.ld;
    Util.check_float "ea" (float_of_int (dest - 1)) p.Ld_ea.ea
  done;
  (* Hop bound below the needed length: unreachable. *)
  let bounded = Journey.frontiers_at_hops trace ~source:0 ~max_hops:(n - 2) in
  Alcotest.(check bool) "last node unreachable" true (Frontier.is_empty bounded.(n - 1))

(* Long-contact chaining: overlapping contacts allow a multi-hop path
   within one "instant". *)
let simultaneous_contacts () =
  let trace =
    Util.trace_of_contacts [ (0, 1, 10., 20.); (1, 2, 10., 20.); (2, 3, 10., 20.) ]
  in
  let frontiers, _ = Journey.run trace ~source:0 in
  let f = frontier_list frontiers.(3) in
  Alcotest.(check int) "single descriptor" 1 (List.length f);
  let p = List.hd f in
  (* Depart any time before 20, arrive max(t, 10): contemporaneous window. *)
  Util.check_float "ld" 20. p.Ld_ea.ld;
  Util.check_float "ea" 10. p.Ld_ea.ea;
  Util.check_float "delivery mid-window" 15. (Frontier.delivery frontiers.(3) 15.)

(* Waiting at a relay: 0-1 contact ends before 1-2 contact begins. *)
let store_and_forward () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.); (1, 2, 5., 6.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  let f = frontier_list frontiers.(2) in
  Alcotest.(check int) "single descriptor" 1 (List.length f);
  let p = List.hd f in
  Util.check_float "ld" 1. p.Ld_ea.ld;
  Util.check_float "ea" 5. p.Ld_ea.ea;
  (* Created at 0.5: leaves during first contact, waits at 1, arrives 5. *)
  Util.check_float "delivery" 5. (Frontier.delivery frontiers.(2) 0.5);
  Util.check_float "too late" infinity (Frontier.delivery frontiers.(2) 1.5)

(* The reverse order gives no path (chronology violated). *)
let chronology_respected () =
  let trace = Util.trace_of_contacts [ (0, 1, 5., 6.); (1, 2, 0., 1.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  Alcotest.(check bool) "no path 0->2" true (Frontier.is_empty frontiers.(2));
  (* But 2 -> 0 works. *)
  let frontiers, _ = Journey.run trace ~source:2 in
  Alcotest.(check bool) "path 2->0 exists" false (Frontier.is_empty frontiers.(0))

(* Multiple optimal paths: Fig. 5-style delivery function with several
   discontinuities. *)
let several_descriptors () =
  let trace =
    Util.trace_of_contacts
      [ (0, 1, 0., 1.); (1, 2, 2., 3.); (0, 2, 8., 9.); (0, 3, 4., 5.); (3, 2, 6., 7.) ]
  in
  let delivery = Journey.delivery_to trace ~source:0 ~dest:2 () in
  (* Three distinct ways: via 1 (leave by 1, arrive 2), via 3 (leave by 5,
     arrive 6), direct (leave by 9, arrive 8). *)
  Alcotest.(check int) "three optimal paths" 3 (Delivery.n_optimal_paths delivery);
  Util.check_float "early" 2. (Delivery.del delivery 0.5);
  Util.check_float "mid" 6. (Delivery.del delivery 1.5);
  Util.check_float "late direct" 8. (Delivery.del delivery 6.);
  Util.check_float "inside direct" 8.5 (Delivery.del delivery 8.5);
  Util.check_float "gone" infinity (Delivery.del delivery 9.5)

let identity_on_source () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  Util.check_float "self delivery" 42. (Frontier.delivery frontiers.(0) 42.)

let empty_trace () =
  let trace = Omn_temporal.Trace.create ~n_nodes:3 ~t_start:0. ~t_end:10. [] in
  let frontiers, rounds = Journey.run trace ~source:1 in
  Alcotest.(check int) "rounds" 0 rounds;
  Alcotest.(check bool) "no reach" true (Frontier.is_empty frontiers.(0))

(* The ablation strategy must give identical frontiers. *)
let strategies_agree () =
  let rng = Rng.create 1234 in
  for _ = 1 to 30 do
    let n = 3 + Rng.int rng 5 in
    let m = 3 + Rng.int rng 20 in
    let trace = Util.random_trace rng ~n ~m ~horizon:30 in
    for source = 0 to n - 1 do
      let fast, r1 = Journey.run ~strategy:Journey.Semi_naive trace ~source in
      let slow, r2 = Journey.run ~strategy:Journey.Full_recompute trace ~source in
      Alcotest.(check int) "same rounds" r1 r2;
      Array.iteri
        (fun dest f ->
          if not (Frontier.equal f slow.(dest)) then
            Alcotest.failf "strategy mismatch source %d dest %d" source dest)
        fast
    done
  done

(* [round_info.changed] is the size of the round's delta: per
   destination, the points of the hop-k frontier absent from the
   hop-(k-1) one. Computed here from [frontiers_at_hops] alone, so it
   does not depend on the order the driver tries candidates in. *)
let changed_is_delta_size () =
  let rng = Rng.create 4321 in
  for _ = 1 to 30 do
    let n = 3 + Rng.int rng 5 in
    let trace = Util.random_trace rng ~n ~m:(3 + Rng.int rng 20) ~horizon:30 in
    for source = 0 to n - 1 do
      List.iter
        (fun strategy ->
          let reported = ref [] in
          let _, rounds =
            Journey.run ~strategy ~on_round:(fun r -> reported := r.changed :: !reported) trace
              ~source
          in
          let expected =
            List.init rounds (fun i ->
                let before = Journey.frontiers_at_hops trace ~source ~max_hops:i in
                let after = Journey.frontiers_at_hops trace ~source ~max_hops:(i + 1) in
                let fresh = ref 0 in
                Array.iteri
                  (fun v f ->
                    let old = frontier_list before.(v) in
                    List.iter (fun p -> if not (List.mem p old) then incr fresh) (frontier_list f))
                  after;
                !fresh)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "source %d: changed per round" source)
            expected (List.rev !reported))
        [ Journey.Semi_naive; Journey.Full_recompute ]
    done
  done

(* The row walk's forward pointers and gallop, on a trace built so that
   each search path is taken at a known spot. Relay 1 meets source 0 in
   14 short contacts [10k, 10k + 1], so its round-2 delta holds the 14
   departures ld_k = 10k + 1 (arrivals ea_k = 10k). Seven later long
   contacts of its row, each to its own node, span 0, 1, 2, 3, 5, 8 and
   all of the departures still ahead of their start: case (a)'s index
   is then found at the gallop's first probe, after each doubling, and
   at the clamp to the delta's end; the spans of 8 and "all" fail if the
   last doubling's upper bound is one short or clamped one short. *)
let long_contacts_span_departures () =
  let relay_meets = List.init 14 (fun k -> (0, 1, 10. *. float k, (10. *. float k) +. 1.)) in
  (* (dest, tb, te): the departures in [tb, te) are the spanned ones. *)
  let long =
    [
      (2, 2., 10.5) (* none: ld_1 = 11 is already past te *);
      (3, 12., 30.5) (* ld_2 *);
      (4, 13., 40.5) (* ld_2, ld_3 *);
      (5, 14., 50.5) (* ld_2 .. ld_4 *);
      (6, 22., 80.5) (* ld_3 .. ld_7 *);
      (7, 23., 110.5) (* ld_3 .. ld_10 *);
      (8, 24., 200.) (* ld_3 .. ld_13: every one left *);
    ]
  in
  let trace =
    Util.trace_of_contacts (relay_meets @ List.map (fun (v, tb, te) -> (1, v, tb, te)) long)
  in
  let full, rounds = Journey.run trace ~source:0 in
  List.iter
    (fun (v, _, _) ->
      Alcotest.(check bool) (Printf.sprintf "node %d reached" v) false (Frontier.is_empty full.(v)))
    long;
  check_against_enumeration trace ~max_hops:(rounds + 1)

let suite =
  [
    Alcotest.test_case "semi-naive = full recompute (30 random traces)" `Slow strategies_agree;
    Alcotest.test_case "matches exhaustive enumeration (150 random traces)" `Slow
      enumeration_gold;
    Alcotest.test_case "matches flooding oracle (25 random traces)" `Slow flooding_gold;
    Alcotest.test_case "hop bounds match Bellman-Ford (30 random traces)" `Slow
      bounded_dijkstra_gold;
    Alcotest.test_case "space-time line" `Quick line_topology;
    Alcotest.test_case "simultaneous contacts chain in one window" `Quick simultaneous_contacts;
    Alcotest.test_case "store-and-forward wait at relay" `Quick store_and_forward;
    Alcotest.test_case "chronology respected" `Quick chronology_respected;
    Alcotest.test_case "several optimal paths (Fig. 5 shape)" `Quick several_descriptors;
    Alcotest.test_case "identity on source" `Quick identity_on_source;
    Alcotest.test_case "empty trace" `Quick empty_trace;
    Alcotest.test_case "changed = size of the round's delta" `Quick changed_is_delta_size;
    Alcotest.test_case "long contact spans many delta departures" `Quick
      long_contacts_span_departures;
  ]
