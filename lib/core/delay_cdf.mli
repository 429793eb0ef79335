(** Empirical success probability of optimal forwarding (Figs. 9–11).

    The paper evaluates, for a uniformly random (source, destination,
    message-creation time), the probability that flooding restricted to
    [k] hops delivers within a delay budget [d]. Because creation time
    ranges over a continuum, this is an integral, and the frontier
    representation makes it exact: the success measure of one pair is a
    sum of piecewise-linear-in-[d] segment contributions
    (see {!Delivery.success_measure}). The accumulator below aggregates
    those contributions over pairs onto a fixed budget grid in
    O(log |grid|) per frontier descriptor, using difference arrays. *)

type t

val create : grid:float array -> t
(** [grid]: ascending, non-negative delay budgets (seconds).
    Raises [Invalid_argument] otherwise. *)

val add_pair : t -> t_start:float -> t_end:float -> Ld_ea.t array -> unit
(** Accumulate one (source, destination) pair whose frontier snapshot is
    given, with creation times uniform on [[t_start, t_end]]. The pair
    contributes mass [t_end - t_start] to the denominator whether or not
    it ever succeeds. *)

val add_pair_frontier : t -> t_start:float -> t_end:float -> Frontier.t -> unit
(** {!add_pair} reading a live frontier's structure-of-arrays storage in
    place — same accumulation, same float-operation order (so results
    stay bit-identical), no descriptor snapshot. The whole-trace driver
    uses this on the hot path. *)

val success : t -> float array
(** [success t].(i) = empirical P(optimal delay <= grid.(i)). *)

val success_inf : t -> float
(** Empirical P(optimal delay < infinity) — the success rate of
    unrestricted flooding with unlimited time. *)

val total_mass : t -> float
(** Denominator accumulated so far (pairs x window length). *)

val merge_into : dst:t -> t -> unit
(** Fold another accumulator built on the {e same} grid into [dst] —
    accumulation distributes over pair partitions, which is what makes
    the parallel driver below possible. Raises [Invalid_argument] on
    grid mismatch. *)

(** {1 Whole-trace driver}

    Every curve set folds per-source {!partial}s in {!plan_order}. *)

type curves = {
  grid : float array;
  hop_success : float array array;
      (** [hop_success.(k-1)] = success curve under hop bound [k],
          for k = 1 .. max_hops. *)
  hop_success_inf : float array;  (** same, at unlimited delay *)
  flood_success : float array;    (** success curve of unrestricted flooding *)
  flood_success_inf : float;
  max_rounds_used : int;  (** largest fixpoint round over all sources *)
}

val compute :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  Omn_temporal.Trace.t ->
  curves
(** Runs {!Journey.run} from every source (default: all nodes; creation
    times uniform over the trace window; all ordered pairs with
    [source <> dest]) and aggregates per-hop-bound success curves.
    [dests] restricts which destinations count as observations — e.g.
    only the experimental devices of a trace that also records external
    ones. [max_hops] defaults to 10, [grid] to
    {!Omn_stats.Grid.delay_default}.

    Parallelism: [pool] runs the independent per-source journeys on a
    shared {!Omn_parallel.Pool.t}; otherwise [domains > 1] uses a
    temporary pool of that many OCaml domains. Either way the curves
    are {e bit-identical} to the sequential run: one task per source,
    per-source partials merged in plan order ({!plan_order}), a
    partition and merge order that never depend on the domain count.

    [windows] restricts message-creation times to a union of intervals
    (e.g. day-time hours only, as in the paper's §5.3.1 aside) instead
    of the whole trace window.

    Raises [Invalid_argument] on bad parameters, among them a node id
    in [sources] or [dests] outside [[0, n_nodes)]; the message names
    the id. *)

(** {1 Per-source partials (distributed merge)}

    The shard fleet ([Omn_shard]) computes one {!partial} per source on
    worker processes and ships them back as opaque payloads; it is an
    {!executor} of {!run_plan}, so the same fold merges them into a
    {!merger} in plan order. Because {!merger_add} performs exactly the
    [merge_into] sequence of a single-process run, a sharded
    run is bit-identical to a single-process run at any worker count. *)

type partial
(** One source's contribution to the final curves. *)

val source_partial :
  ?max_hops:int ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  Omn_temporal.Trace.t ->
  Omn_temporal.Node.t ->
  partial
(** The contribution of one source, with the same defaults as
    {!compute}. Raises [Invalid_argument] on a bad source or
    parameters. *)

val partial_to_string : partial -> string
val partial_of_string : string -> (partial, string) result
(** Magic-prefixed Marshal payload — floats round-trip bit-exactly.
    Only payloads produced by the same binary are safe to decode; the
    magic rejects everything else cheaply. *)

type merger

val merger_create : ?max_hops:int -> ?grid:float array -> unit -> merger
(** Fresh accumulators, same defaults as {!compute}. *)

val merger_add : merger -> partial -> unit
(** Fold one partial in. Call in plan order — the merge sequence is
    what the bit-identity contract is defined over. Raises
    [Invalid_argument] on a [max_hops] mismatch. *)

val merger_curves : merger -> curves

(** {1 The source-plan driver}

    The pieces {!compute_resumable} is built from, shared with
    [Diameter_est]. {!run_plan} serves every executor: inline, a domain
    pool, supervised, or the shard fleet. *)

val uniform_order : Omn_temporal.Node.t list -> Omn_temporal.Node.t list
(** A stride order of the given sources whose every prefix is a
    near-uniform sample of the whole list, so a budget-truncated run
    is a fair subsample. *)

val plan_order :
  ?sources:Omn_temporal.Node.t list -> Omn_temporal.Trace.t -> Omn_temporal.Node.t list
(** The one merge-order rule: [sources] as given, else
    [uniform_order] of all nodes. *)

type executor =
  Omn_temporal.Node.t list -> (partial, Omn_resilience.Supervise.failure) result array
(** Computes a batch of sources: one partial, or the failure of a source
    that exhausted its retries, per source, in the order given. *)

type plan = private {
  max_hops : int;
  budget_grid : float array;
  is_dest : bool array;
  windows : (float * float) list;
  order : Omn_temporal.Node.t list;  (** {!plan_order} *)
  batch : executor;  (** the run's executor *)
  out_of_budget : unit -> bool;  (** the wall-clock budget has expired *)
}

val run_plan :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  ?budget_seconds:float ->
  ?clock:(unit -> float) ->
  ?supervise:Omn_resilience.Supervise.policy ->
  ?executor:executor ->
  Omn_temporal.Trace.t ->
  (plan -> 'a) ->
  ('a, Omn_robust.Err.t) result
(** Validate the parameters, own the pool ([domains > 1], no [pool], no
    [executor]) and run the continuation on the plan. The executor is
    [executor] when given (no pool is spawned), else {!source_partial}
    on the pool, under [supervise] when given. An external executor's
    [Error] is kept (quarantined) only when [supervise] quarantines;
    otherwise the run fails with a [Compute] error, as an unsupervised
    in-process run does. [clock] (default [Unix.gettimeofday]) times
    the budget. Escaping exceptions become typed errors; every id in
    [sources] and [dests] is range-checked before a pool is spawned or
    a source runs. *)

val save_snapshot : magic:string -> string -> 'a -> unit
(** Marshal a snapshot into a CRC-framed, rotated checkpoint
    ({!Omn_robust.Checkpoint}). *)

val load_snapshot :
  magic:string -> fp:string -> fp_of:('a -> string) -> resume:bool -> string -> ('a * bool) option
(** With [resume] and a checkpoint on disk: the newest generation
    whose [fp_of] is [fp], and whether it is the previous one. Raises
    a [Checkpoint] error when none is usable. The caller must name the
    type it saved. *)

(** {1 Checkpointed / budgeted driver}

    The long-run entry point for multi-day traces: after every chunk
    of [checkpoint_every] sources the full accumulator state is
    written atomically (temp file + rename) to the checkpoint file, so
    a killed process loses at most one chunk of work. *)

type progress = {
  sources_done : int;
  sources_total : int;
  partial : bool;  (** true when the budget expired before all sources ran *)
  degraded : Omn_resilience.Supervise.failure list;
      (** sources quarantined by the [supervise] policy, in the order
          they were processed — empty for unsupervised runs *)
  ckpt_fallback : bool;
      (** true when resume found the current checkpoint generation
          corrupt (or rejected) and restarted from [*.ckpt.prev] *)
}

val compute_resumable :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?budget_seconds:float ->
  ?report:(done_:int -> total:int -> degraded:int -> fallback:bool -> unit) ->
  ?supervise:Omn_resilience.Supervise.policy ->
  ?executor:executor ->
  Omn_temporal.Trace.t ->
  (curves * progress, Omn_robust.Err.t) result
(** {!compute} with typed errors, plus the policies below. Sources run
    in plan order; chunk boundaries exist only when a checkpoint, a
    budget or a report needs them, and never change the curves.
    - [checkpoint]: write a CRC-32-framed checkpoint file after every
      chunk, rotating the previous generation to [*.prev]
      ({!Omn_robust.Checkpoint}); both generations are removed once
      the run completes;
    - [resume] (with [checkpoint]): load that file if it exists and
      continue from it. The checkpoint embeds a fingerprint of the
      trace and all parameters; resuming against a different trace or
      parameters is a [Checkpoint] error, as is a corrupt file — but
      when the {e previous} generation is still intact the run falls
      back to it automatically ([progress.ckpt_fallback = true]),
      re-doing at most one chunk. An uninterrupted run and a
      killed-and-resumed run produce bit-identical curves (same merge
      order).
    - [supervise]: run every per-source task under the given
      {!Omn_resilience.Supervise.policy}. Sources that exhaust their
      retries are quarantined and listed in [progress.degraded]; the
      surviving sources' contribution is bit-identical to a fault-free
      run over the plan order with the quarantined ones removed.
    - [budget_seconds]: stop after the first chunk that exhausts the
      wall-clock budget, returning a clearly-labelled partial result
      over a near-uniform subset of the sources
      ([progress.partial = true]). At least one chunk always
      completes, so repeated budgeted invocations with a checkpoint
      make progress.
    - [checkpoint_every]: chunk size in sources (default 8). Part of
      the fingerprint — resuming requires the same value.
    - [report]: called after every chunk with the cumulative source
      count, the cumulative quarantined-source count and whether the
      run resumed from a fallback checkpoint generation (the CLI's
      [--progress] hooks in here and surfaces all three). Purely
      observational — it must not mutate the computation's inputs.
    - [executor]: compute the sources elsewhere (the shard fleet's
      [Omn_shard.Coord.with_fleet]); see {!run_plan}. The checkpoint
      does not record the executor, so a run checkpointed by one
      executor resumes under any other. *)
