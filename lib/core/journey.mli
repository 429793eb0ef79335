(** Exhaustive computation of delay-optimal paths (§4.4 of the paper).

    For one source, [run] computes the Pareto frontier of (LD, EA)
    descriptors towards {e every} destination, for {e every} hop bound,
    in hop-indexed rounds:

    - round 1 holds the direct contacts;
    - round k+1 extends every descriptor discovered at round k by one
      contact, using the concatenation rule (fact (iv)), and inserts the
      results in the destinations' frontiers;
    - rounds stop at a fixpoint (no frontier changed), which the small
      diameter of opportunistic networks makes fast — or at [max_rounds].

    The rounds are {e semi-naive}: only descriptors newly inserted during
    the previous round are extended, which is sound because frontiers
    only improve (a candidate dominated once is dominated forever), and
    complete because optimal substructure holds under domination: if a
    sequence [s = s' . e] is optimal, any frontier descriptor dominating
    [s'] concatenates with [e] (its EA is no larger) and the compound
    dominates [s].

    A round walks only the contact rows of the nodes whose delta is
    non-empty (RAPTOR's marked routes, Delling, Pajor & Werneck, ALENEX
    2012): every other node has nothing new to extend. Each row holds
    the node's contacts in start order. Per contact [[tb; te]] of the
    row of [u], the candidate set is pruned before frontier insertion:
    from [u]'s bi-sorted delta [D], only
    (a) the first [P] in [D] with [ld >= te] (candidate [(te, max ea tb)]),
    (b) the last [P] with [ea <= tb] and [ld < te] (candidate [(ld, tb)]),
    (c) every [P] with [tb < ea <= te] and [ld < te] (candidate
    [(ld, ea)]) can be undominated. Along the row [tb] never decreases,
    so two delta positions only move forward: [p], the first [P] with
    [ld >= tb], and (b)'s index. (a)'s index is at least [p] and is
    found by a galloping (exponential) search from [p], whose cost is
    logarithmic in the number of departures the contact spans — one
    comparison when it spans none. (c)'s range starts just after (b)'s
    index and is scanned until its first non-emitted point. A (b)
    candidate is not re-emitted when the row already sent the same [P]
    to the same neighbour, whose earlier candidate has the same [ld]
    and an earlier [ea]. A round therefore costs [O(sum over touched u
    of (deg u + |D_u| + sum of log gaps + hits))], where a contact's
    gap is the number of delta departures in [[tb, te)] — no
    per-contact binary search over the delta — rather than
    [O(m * |D|)]. *)

type round_info = {
  hop : int;  (** the round just completed; descriptors use <= [hop] contacts *)
  frontiers : Frontier.t array;  (** per destination; index [source] holds the identity *)
  changed : int;
      (** size of the round's delta: the descriptors this round added to
          the frontiers that are still members at its end, summed over
          destinations. It does not depend on the order in which the
          round's candidates were tried, and it is [0] exactly when no
          frontier changed. *)
}

type strategy =
  | Semi_naive
      (** extend only the descriptors discovered in the previous round —
          the algorithm described above (default) *)
  | Full_recompute
      (** ablation: re-extend every frontier descriptor each round; same
          results, cost grows with the whole frontier instead of the
          delta (see the timing bench) *)

val run :
  ?max_rounds:int ->
  ?strategy:strategy ->
  ?on_round:(round_info -> unit) ->
  Omn_temporal.Trace.t ->
  source:Omn_temporal.Node.t ->
  Frontier.t array * int
(** [run trace ~source] returns the fixpoint frontiers (delay-optimal
    paths of unbounded hop count) and the number of rounds executed.
    [on_round] fires after every round including the last (the fixpoint
    round, which has [changed = 0], is not reported as a round).
    [max_rounds] (default 1024) is a safety valve; reaching it without a
    fixpoint raises [Failure]. The frontiers handed to [on_round] are
    live views — snapshot with {!Frontier.to_array} or {!Frontier.copy}
    if kept. *)

val frontiers_at_hops :
  Omn_temporal.Trace.t -> source:Omn_temporal.Node.t -> max_hops:int -> Frontier.t array
(** Frontiers restricted to paths of at most [max_hops] contacts
    (runs [min max_hops fixpoint] rounds). *)

val delivery_to :
  Omn_temporal.Trace.t ->
  source:Omn_temporal.Node.t ->
  dest:Omn_temporal.Node.t ->
  ?max_hops:int ->
  unit ->
  Delivery.t
(** Convenience: the delivery function of one pair. *)
