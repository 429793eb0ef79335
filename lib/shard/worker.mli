(** Shard worker process: computes per-source partials on demand.

    Lifecycle (see {!Proto} for the handshake): establish a connection
    — either dialing the coordinator ({!Dial}: spawned same-host
    workers and outbound TCP joiners) or accepting coordinator
    connections on a listener ({!Listen}: pre-started multi-machine
    workers, [omn worker --listen host:port]) — authenticate when a
    pre-shared key is configured ({!Auth}), send [Hello] ([worker = -1]
    asks the coordinator to assign an id), receive the [Job], obtain
    the trace by digest (in-memory from a previous session, from the
    [--trace-cache] content store, or shipped once via
    [Need_trace]/[Trace_data]), answer [Ready], then serve [Compute]
    requests until [Shutdown] or the connection closes.

    Reconnection: a dialing worker that loses its link mid-session
    (partition, coordinator failover) redials with bounded
    exponential backoff and rejoins under its assigned id; its traces
    persist in memory across sessions, so a rejoin re-ships zero trace
    bytes. A listening worker simply accepts the next connection
    ([--once] exits after the first cleanly shut-down session).

    Batching: the worker drains every [Compute] already queued on the
    socket before computing, and runs the batch through its own domain
    {!Omn_parallel.Pool} ([job.domains]); results are sent back in
    batch order. Merge order lives entirely on the coordinator, so
    worker-side parallelism cannot affect the final curves.

    No state of its own: the worker keeps no results and writes no
    checkpoint. The coordinator holds every acknowledged partial, so a
    killed and respawned worker recomputes only the sources that were
    in flight on it. A failing source is retried under the job's
    supervision policy and, once exhausted, reported as [Failed] — the
    worker itself survives poison sources.

    The worker ignores [SIGPIPE]; a permanently unreachable
    coordinator is an orderly [Ok] exit, while an authentication or
    protocol rejection is a typed [E-AUTH]/[E-PROTO] error for the CLI
    to turn into exit 2. *)

type mode =
  | Dial of Transport.addr  (** connect out to the coordinator *)
  | Listen of Transport.addr  (** accept coordinator connections *)

val main :
  worker:int ->
  mode:mode ->
  ?auth_key:string ->
  ?trace_cache:string ->
  ?once:bool ->
  unit ->
  (unit, Omn_robust.Err.t) result
(** Run the worker to completion. [worker] is the initial id ([-1] for
    a joiner). [auth_key] enables the {!Auth} handshake (it must then
    be set on the coordinator too); [trace_cache] points at the
    content-addressed {!Store} directory; [once] (listen mode) exits
    after one cleanly completed session. Returns [Ok ()] on [Shutdown]
    or coordinator disappearance, [Error] with [E-AUTH]/[E-PROTO]/
    [E-IO] on typed rejections. *)

val serve_if_worker_argv : unit -> unit
(** When [Sys.argv] is the [EXE worker --id=I --connect ADDR ...] that
    the coordinator re-executes to spawn a worker, serve as that worker and
    [exit]; otherwise return. For binaries that are their own workers. *)
