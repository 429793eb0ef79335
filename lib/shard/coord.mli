(** Shard coordinator: a fleet of worker processes as an executor of
    {!Omn_core.Delay_cdf.run_plan}.

    {!with_fleet} starts one fleet for a session and hands its
    continuation an {!Omn_core.Delay_cdf.executor}: each call maps a
    batch of sources to one partial (or failure) per source, in order.
    The merge, the wall-clock budget, the checkpoint and the progress
    report all belong to the {!Omn_core.Delay_cdf.run_plan} caller the
    executor is plugged into ({!Omn_core.Delay_cdf.compute_resumable},
    or the sampled diameter estimator), so a sharded run folds its partials exactly like an
    in-process run: the curves are bit-identical at any worker count,
    under any membership schedule and any failure schedule that still
    completes, and a checkpoint written by a fleet resumes in process
    (and the reverse).

    Within a batch, sources are consistent-hashed over the fleet
    ({!Ring}) and streamed as [Compute] requests over CRC-framed
    connections ({!Frame}/{!Proto}) — Unix-domain sockets for spawned
    same-host workers, authenticated TCP ({!Transport}, {!Auth}) for
    multi-machine fleets.

    Fleet shape: [workers] processes are spawned locally and dial back
    in; [peers] are pre-started [omn worker --listen] processes the
    coordinator dials (playing the {!Auth} {e client} on those links).
    Both are part of the initial fleet the dispatch barrier waits for.
    Additional members may join mid-run: an authenticated connection
    whose [Hello] carries [worker = -1] is admitted, assigned the next
    id, and added to the ring — only the moved arc's {e pending}
    sources route to it; assigned sources are never recalled, so
    at-most-once merging is preserved at any membership schedule.

    Trace shipping is digest-addressed: the job carries the trace's
    SHA-256, and only a worker that cannot produce the bytes locally
    (memory, or its [--trace-cache] content store) asks for them via
    [Need_trace] — once per worker per fleet, however many batches the
    session runs. A rejoining worker with a warm cache re-ships zero
    bytes ([stats.trace_cache_hits]).

    Failure semantics:
    - a spawned worker that closes its connection, sends a corrupt
      frame or an undecodable partial, or misses the heartbeat timeout (it may be hung —
      [SIGSTOP]ed — not dead) is [SIGKILL]ed and reaped; its
      {e unacknowledged} sources are reassigned to their ring
      successors, and a bounded number of respawns with exponential
      backoff brings it back. Workers keep no results: every
      acknowledged partial is already the coordinator's, so a
      respawned worker recomputes only what was in flight on it;
    - a dialed peer whose link drops is re-dialed under the same
      bounded-backoff budget ([max_respawns]); a peer that {e rejects}
      our credentials or speaks another protocol version aborts the
      run with a typed [E-AUTH]/[E-PROTO] error (retrying an identical
      handshake cannot succeed);
    - an inbound connection that fails the pre-shared-key handshake is
      rejected with a typed error frame, counted
      ([stats.auth_rejects]), and closed — the run is unaffected;
    - duplicate results (a reassignment race, or net-dup chaos) are
      dropped at the accounting table — a source is merged {e at most
      once};
    - a source that exhausts the worker-side supervision policy
      ([supervise], shipped whole in the job) comes back as [Failed]
      and the executor returns it as [Error]; [run_plan] quarantines
      it ([progress.degraded], CLI exit 3) only when its policy
      quarantines, and otherwise fails the run with [E-COMPUTE], like
      an in-process run;
    - a killed coordinator resumes through [compute_resumable]'s
      checkpoint;
    - when every worker has exhausted its respawns and sources remain,
      the batch raises a [Compute] error (CLI exit 1): results are
      never silently incomplete.

    The chaos schedule ({!Omn_robust.Faultgen.shard_event}) is
    interpreted here: after the scheduled number of acknowledged
    results (counted over the whole session) the victim is killed,
    stopped, frame-corrupted, partitioned (link dropped, process kept —
    it must reconnect), slowed (frames delayed within a bound strictly
    below the heartbeat timeout — a slow link is never declared dead),
    duplicated (net-dup), joined by an impostor with a wrong key
    (auth-bad), grown (worker-join) or shrunk (worker-leave). All shard
    events are recorded in {!Omn_obs.Timeline} and counted in
    [Omn_obs.Metrics] under [shard.*] / [shard.net.*]. *)

type config = {
  workers : int;  (** locally spawned workers (may be 0 with [peers]) *)
  worker_domains : int;  (** domain-pool size inside each worker *)
  vnodes : int;  (** ring points per worker *)
  max_inflight : int;
      (** flow-control window: max unacknowledged [Compute]s per worker.
          Bounds socket buffering on large runs, and guarantees a worker
          that dies or hangs mid-run leaves undispatched work behind —
          so failover (not a drained socket buffer) is what completes
          the run under chaos schedules *)
  heartbeat_interval : float;  (** seconds between [Ping]s *)
  heartbeat_timeout : float;
      (** silence past this declares a worker dead; must exceed the
          longest single-source compute time *)
  max_respawns : int;
      (** respawns (or re-dials, for peers) per worker after its first *)
  respawn_backoff : float;  (** base respawn delay, doubled per respawn *)
  supervise : Omn_resilience.Supervise.policy option;
      (** the run's supervision policy, applied to every source on the
          workers; [None] = one attempt. {!run} also hands it to
          [compute_resumable], which decides whether failures are
          quarantined *)
  chaos : Omn_robust.Faultgen.shard_event list;  (** must be ascending *)
  listen : Transport.addr option;
      (** listener address (default: a fresh Unix-domain path under
          [TMPDIR]); [Tcp (host, 0)] binds an ephemeral port (spawned
          workers are pointed at the actually-bound one) *)
  peers : Transport.addr list;
      (** pre-started [omn worker --listen] addresses to dial *)
  auth_key : string option;
      (** pre-shared key: require the {!Auth} handshake on every link *)
  worker_trace_cache : string option;
      (** [--trace-cache] directory handed to spawned workers *)
  on_partial : (Omn_temporal.Node.t -> Omn_core.Delay_cdf.partial -> unit) option;
      (** observe each acknowledged per-source partial, in batch order,
          as a batch completes; [None] = no observation. Must not
          mutate the computation. *)
  telemetry : bool;
      (** pull each worker's metrics snapshot and timeline segments
          ([Stats_pull]/[Stats_push]) every [stats_interval] seconds and
          once more before the final merge; results are bit-identical
          on or off (telemetry frames ride the same links but the merge
          is plan-ordered) *)
  stats_interval : float;  (** seconds between telemetry pulls *)
  stat_addr : Transport.addr option;
      (** when set, serve a live Prometheus text exposition of the
          merged registry (coordinator as [worker="-1"] plus every
          worker's latest push) over HTTP on this address — the seed of
          the [omnd] query surface. [Tcp (host, 0)] binds an ephemeral
          port; see [on_stat_bound] *)
  on_stat_bound : (Transport.addr -> unit) option;
      (** called once with the actually-bound stat address *)
}

val default : workers:int -> config
(** 1 domain per worker, 64 vnodes, a 32-source in-flight window,
    0.25 s heartbeat interval, 5 s timeout, 2 respawns with 0.1 s base
    backoff, no supervision, no chaos, no peers, no auth, Unix-domain
    listener, no telemetry (1 s pull interval when enabled), no stat
    endpoint. Spawned workers re-execute [Sys.executable_name] as
    [worker --id=I --connect ADDR] (see {!Worker.serve_if_worker_argv});
    the pre-shared key travels in [OMN_SHARD_KEY], never argv. *)

type telemetry = {
  tw_worker : int;
  tw_metrics : Omn_obs.Metrics.snapshot;
      (** the worker's last pushed snapshot (counters are cumulative,
          so the last push is the total) *)
  tw_events : (int * Omn_obs.Timeline.entry) list;
      (** all pulled timeline segments concatenated, chronological,
          worker-clock timestamps (correct with [tw_offset]) *)
  tw_dropped : (int * int) list;  (** per-domain ring drops *)
  tw_offset : float;
      (** estimated worker_clock - coordinator_clock (seconds), from
          the lowest-RTT pull round trip; [0.] if never estimated *)
  tw_rtt : float;  (** that sample's round-trip time *)
}
(** One worker's accumulated telemetry, ready for
    {!Omn_obs.Trace_export.fleet_to_json} ([tw_events]/[tw_dropped]/
    [tw_offset]/[tw_rtt] map onto [fleet_worker]) and for
    {!Omn_obs.Metrics.merge} after [tag_worker]. *)

type stats = {
  spawns : int;
      (** worker processes started (incl. respawns) and peer links
          established (incl. re-dials) *)
  heartbeat_misses : int;
  frame_corrupts : int;
  reassigned : int;  (** sources moved off a dead or partitioned worker *)
  rejoins : int;
      (** workers that completed a handshake again after having been
          ready before (respawn or reconnect) *)
  duplicates : int;  (** duplicate results dropped by the acked table *)
  auth_rejects : int;  (** inbound connections that failed the handshake *)
  partitions : int;  (** chaos-injected link drops *)
  trace_ship_bytes : int;  (** total trace bytes shipped to workers *)
  trace_cache_hits : int;
      (** sessions that reached [Ready] without any trace shipping *)
  joins : int;  (** members admitted mid-run *)
  leaves : int;  (** members departed gracefully mid-run *)
  shard_map_sha256 : string;
      (** digest of the plan order's placement on the initial fleet *)
  fleet : telemetry list;
      (** per-worker telemetry, ascending worker id; empty when
          [config.telemetry] is off *)
}

val with_fleet :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  ?clock:(unit -> float) ->
  config ->
  Omn_temporal.Trace.t ->
  (Omn_core.Delay_cdf.executor -> 'a) ->
  ('a * stats, Omn_robust.Err.t) result
(** [with_fleet cfg trace f] binds the listener, runs [f] on the
    fleet's executor, then shuts every worker down and reports the
    session's [stats]. The workers compute
    {!Omn_core.Delay_cdf.source_partial} with [max_hops], [dests],
    [grid] and [windows], which must be those [f] runs its plan with;
    [sources] only names the plan whose placement
    [stats.shard_map_sha256] digests. Workers are spawned (or dialed)
    by the first batch, so a session that computes nothing starts
    none. A batch that cannot complete raises [Omn_robust.Err.Error]
    (all workers lost, or a fatal handshake rejection); [run_plan]
    turns it into its [Error]. Configuration and bind errors come back
    as [Error] without running [f]. [clock] times heartbeats and
    respawns (default wall clock). *)

val run :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  ?clock:(unit -> float) ->
  config ->
  Omn_temporal.Trace.t ->
  ( Omn_core.Delay_cdf.curves * Omn_core.Delay_cdf.progress * stats,
    Omn_robust.Err.t )
  result
(** {!Omn_core.Delay_cdf.compute_resumable} over {!with_fleet}, under
    [config.supervise]: same computation and defaults as
    {!Omn_core.Delay_cdf.compute}, as one batch. *)
