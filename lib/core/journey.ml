module Trace = Omn_temporal.Trace

type round_info = { hop : int; frontiers : Frontier.t array; changed : int }

type strategy = Semi_naive | Full_recompute

(* The round loop is written against the structure-of-arrays layers
   underneath it and allocates nothing per relaxation in the steady
   state:

   - a round walks only the rows of the nodes on its [touched] list
     (those whose delta is non-empty), reading each contact's endpoints
     and times by index out of the trace's CSR mirror instead of an
     array of boxed [Contact.t] records. Every candidate of a round
     comes from the previous round's frozen delta, so neither the order
     of the rows nor skipping the rows of untouched nodes changes the
     round's frontiers — only how many candidates are rejected;
   - candidate descriptors travel as bare [ld]/[ea] floats straight
     into [Frontier.insert_pt] — no intermediate [Ld_ea.make];
   - each node owns two reusable scratch frontiers ([delta], holding
     the descriptors discovered last round, and [next], collecting this
     round's discoveries already Pareto-pruned), swapped and [clear]ed
     between rounds, so the pruning of a round's discoveries is
     incremental and allocation-free.

   Inserting a successful frontier candidate into [next] never fails:
   if any earlier fresh point dominated it, that point (or a dominator
   of it, transitively) would still be in the destination frontier and
   would have rejected the candidate there first. So [next.(v)] is
   exactly the Pareto antichain of the round's fresh points, in sorted
   order, whatever order the candidates arrived in. *)
let run_internal ?(max_rounds = 1024) ?(strategy = Semi_naive) ?on_round ?stop_after trace
    ~source =
  let n = Trace.n_nodes trace in
  if source < 0 || source >= n then invalid_arg "Journey.run: bad source";
  let frontiers = Array.init n (fun _ -> Frontier.create ()) in
  let _ = Frontier.insert frontiers.(source) Ld_ea.identity in
  let delta = ref (Array.init n (fun _ -> Frontier.create ())) in
  let next = ref (Array.init n (fun _ -> Frontier.create ())) in
  ignore (Frontier.insert_uncounted !delta.(source) ~ld:Ld_ea.identity.ld ~ea:Ld_ea.identity.ea);
  (* Touched-node stacks (this round's and next round's), reused across
     rounds; [next.(v)]'s emptiness dedups membership. *)
  let touched = ref (Array.make n 0) and touched_n = ref 1 in
  let next_touched = ref (Array.make n 0) and next_touched_n = ref 0 in
  !touched.(0) <- source;
  let csr = Trace.time_csr trace in
  let ca = csr.Trace.csr_a and cb = csr.Trace.csr_b in
  let cbeg = csr.Trace.csr_beg and cend = csr.Trace.csr_end in
  let row_off = csr.Trace.csr_row_off and rows = csr.Trace.csr_rows in
  (* [last_j.(v)] is the delta index of the last case-(b) candidate sent
     to [v] by the row walk numbered [last_row.(v)]; the row numbers
     never repeat, so nothing is cleared between rows or rounds. *)
  let last_j = Array.make n (-1) and last_row = Array.make n (-1) in
  let row_id = ref 0 in
  (* Without flambda, every float crossing a function boundary is boxed,
     so the candidate coordinates stay in unboxed float positions inside
     the row walk; [insert_cand] is the one place a candidate becomes a
     pair of boxed arguments, once per emission. Both closures are
     allocated once per run, not per contact. The frontier inserts are
     uncounted: [kept] and [pruned] tally their outcomes, and the run
     adds the tallies to the frontier metrics once, when it ends. *)
  let kept = ref 0 and pruned = ref 0 in
  let insert_cand to_node ld ea =
    let evicted = Frontier.insert_uncounted frontiers.(to_node) ~ld ~ea in
    if evicted < 0 then incr pruned
    else begin
      incr kept;
      pruned := !pruned + evicted;
      let nxt = !next.(to_node) in
      if Frontier.is_empty nxt then begin
        !next_touched.(!next_touched_n) <- to_node;
        incr next_touched_n
      end;
      ignore (Frontier.insert_uncounted nxt ~ld ~ea)
    end
  in
  (* Extend the delta of [u] by every contact of its row: the candidate
     case analysis of the .mli header, inlined over the delta's float
     arrays. The row is in start order and [tb] never decreases along
     it, so the delta positions that depend on [tb] only move forward:
     [p], the first index with [ld >= tb], and the case-(b) index [j].
     Case (a)'s index [i], the first with [ld >= te], is at least [p]
     and is galloped for from there — usually one comparison, since
     most contacts span few delta departures. Case (c) scans forward
     from [j + 1] and stops at the first point it does not emit. A
     case-(b) candidate [(ld_j, tb)] is skipped when this row already
     sent the same [j] to the same [v], because that earlier
     [(ld_j, tb')] with [tb' <= tb] dominates it. So a row walk costs
     [O(deg + |D| + sum of log gaps + hits)], with no per-contact
     binary search over the delta. *)
  let relax_row u =
    let d = !delta.(u) in
    let dn = Frontier.size d in
    let dld = Frontier.ld_arr d and dea = Frontier.ea_arr d in
    incr row_id;
    let row = !row_id in
    let p = ref 0 and j = ref (-1) in
    for r = row_off.(u) to row_off.(u + 1) - 1 do
      let ci = rows.(r) in
      let v = if ca.(ci) = u then cb.(ci) else ca.(ci) in
      let tb = cbeg.(ci) and te = cend.(ci) in
      while !p < dn && dld.(!p) < tb do
        incr p
      done;
      (* i = first delta index with ld >= te: probe p, then p + 1, p + 2,
         p + 4, ... until a probe reaches [te] or passes the end, then
         binary-search the last doubling. *)
      let i =
        let p = !p in
        if p >= dn || dld.(p) >= te then p
        else begin
          let step = ref 1 in
          while p + !step < dn && dld.(p + !step) < te do
            step := 2 * !step
          done;
          let lo = ref (p + (!step / 2) + 1) in
          let hi = ref (if p + !step < dn then p + !step else dn) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if dld.(mid) >= te then hi := mid else lo := mid + 1
          done;
          !lo
        end
      in
      if i < dn && dea.(i) <= te then insert_cand v te (if dea.(i) >= tb then dea.(i) else tb);
      (* j = last delta index with ea <= tb. *)
      while !j + 1 < dn && dea.(!j + 1) <= tb do
        incr j
      done;
      let j = !j in
      if j >= 0 && dld.(j) < te && not (last_row.(v) = row && last_j.(v) = j) then begin
        last_row.(v) <- row;
        last_j.(v) <- j;
        insert_cand v dld.(j) tb
      end;
      (* every delta point with tb < ea <= te and ld < te, verbatim *)
      let k = ref (j + 1) in
      while !k < i && dea.(!k) <= te do
        insert_cand v dld.(!k) dea.(!k);
        incr k
      done
    done
  in
  (* Returns the size of the round's delta: the number of descriptors
     the round added to the frontiers and kept. *)
  let do_round () =
    next_touched_n := 0;
    for idx = 0 to !touched_n - 1 do
      relax_row !touched.(idx)
    done;
    let changed = ref 0 in
    for idx = 0 to !next_touched_n - 1 do
      changed := !changed + Frontier.size !next.(!next_touched.(idx))
    done;
    (match strategy with
    | Semi_naive ->
      (* Clear the consumed deltas, then swap: this round's pruned
         discoveries become next round's deltas, and the cleared arrays
         stand by to collect the round after. *)
      for idx = 0 to !touched_n - 1 do
        Frontier.clear !delta.(!touched.(idx))
      done;
      let d = !delta in
      delta := !next;
      next := d;
      let t = !touched in
      touched := !next_touched;
      next_touched := t;
      touched_n := !next_touched_n
    | Full_recompute ->
      (* Ablation: re-extend every frontier point each round instead of
         only the new ones. Same results, no convergence shortcut. *)
      for idx = 0 to !next_touched_n - 1 do
        Frontier.clear !next.(!next_touched.(idx))
      done;
      for idx = 0 to !touched_n - 1 do
        Frontier.clear !delta.(!touched.(idx))
      done;
      touched_n := 0;
      for v = 0 to n - 1 do
        if not (Frontier.is_empty frontiers.(v)) then begin
          Frontier.copy_into ~src:frontiers.(v) ~dst:!delta.(v);
          !touched.(!touched_n) <- v;
          incr touched_n
        end
      done);
    !changed
  in
  let rec loop round =
    if round > max_rounds then failwith "Journey.run: no fixpoint within max_rounds";
    let changed = do_round () in
    if changed = 0 then round - 1
    else begin
      (match on_round with
      | Some f -> f { hop = round; frontiers; changed }
      | None -> ());
      match stop_after with
      | Some k when round >= k -> round
      | _ -> loop (round + 1)
    end
  in
  let rounds =
    Fun.protect
      ~finally:(fun () -> Frontier.add_counts ~kept:!kept ~pruned:!pruned)
      (fun () -> loop 1)
  in
  (frontiers, rounds)

let run ?max_rounds ?strategy ?on_round trace ~source =
  run_internal ?max_rounds ?strategy ?on_round trace ~source

let frontiers_at_hops trace ~source ~max_hops =
  if max_hops < 0 then invalid_arg "Journey.frontiers_at_hops: negative bound";
  if max_hops = 0 then begin
    let frontiers = Array.init (Trace.n_nodes trace) (fun _ -> Frontier.create ()) in
    let _ = Frontier.insert frontiers.(source) Ld_ea.identity in
    frontiers
  end
  else fst (run_internal ~stop_after:max_hops trace ~source)

let delivery_to trace ~source ~dest ?max_hops () =
  let frontiers =
    match max_hops with
    | None -> fst (run trace ~source)
    | Some k -> frontiers_at_hops trace ~source ~max_hops:k
  in
  Delivery.of_descriptors (Frontier.to_array frontiers.(dest))
