(** Shard wire protocol: message types and their encoding.

    Messages are OCaml values Marshalled to strings and shipped inside
    {!Frame} frames, which add the length prefix, version byte and
    CRC-32. Marshal is safe here because both ends must be the {e same
    build} — same-host fleets re-execute the coordinator binary, and
    TCP peers prove build equality in the {!Auth} handshake before any
    [Proto] traffic — and the frame CRC rejects corrupted bytes before
    they reach [Marshal.from_string]. Decoding additionally catches
    {e every} exception defensively and returns [Error] (fuzz-pinned):
    a hostile or confused peer yields a typed drop, never a crash.

    Handshake: worker connects (authenticating first when a key is
    set) and sends {!from_worker.Hello} — [worker = -1] asks the
    coordinator to assign an id (dynamic join). The coordinator
    replies with {!to_worker.Job}, which names the trace by digest
    only; a worker that does not already hold those bytes (in memory
    from a previous session, or in its [--trace-cache] store) answers
    {!from_worker.Need_trace} and the coordinator ships one
    {!to_worker.Trace_data}. The worker then answers
    {!from_worker.Ready}; only then does the coordinator stream
    [Compute] messages. Workers keep no results between requests: the
    coordinator holds every acknowledged partial, and checkpoints are
    the coordinator's ([Omn_core.Delay_cdf.compute_resumable]). *)

type job = {
  trace_digest : string;
      (** SHA-256 of the trace text ([Omn_temporal.Trace_io.to_string]
          form, [%.17g] floats, so the round-trip is bit-exact); the
          bytes travel separately in {!to_worker.Trace_data} and only
          when the worker misses its cache *)
  worker : int;  (** the id the coordinator assigned this connection *)
  max_hops : int;
  dests : int list option;
  grid : float array option;
  windows : (float * float) list option;
  supervise : Omn_resilience.Supervise.policy option;
      (** the run's supervision policy, applied worker-side to every
          source (retries, backoff, task deadline); [None] means one
          attempt. A source that still fails arrives as [Failed], never
          as a worker crash; whether it is quarantined or fails the run
          is decided by the coordinator's fold under the same policy *)
  domains : int;  (** size of the worker's own domain pool *)
  telemetry : bool;
      (** enable the worker's local metrics registry and timeline so
          [Stats_pull] has something to report; never affects computed
          results (the PR 3/5 bit-identity contract) *)
}

type to_worker =
  | Job of job
  | Trace_data of { digest : string; text : string }
      (** full trace bytes, sent only in answer to [Need_trace]; the
          worker verifies [Sha256.string text = digest] before use *)
  | Compute of { slot : int; source : int }
      (** [slot] is the position in the coordinator's merge order; the
          worker echoes it back untouched *)
  | Stats_pull of { t_coord : float }
      (** telemetry poll: report your metrics snapshot and new timeline
          events. [t_coord] is the coordinator's send stamp, echoed back
          in [Stats_push] so the coordinator can pair the reply with its
          own receive stamp for an NTP-style clock-offset estimate even
          with several pulls outstanding *)
  | Ping
  | Shutdown

type from_worker =
  | Hello of { worker : int }
      (** [worker = -1]: a joiner asking to be assigned an id *)
  | Need_trace of { digest : string }
      (** cache miss: please ship the bytes for this digest *)
  | Ready of { worker : int }
  | Result of { slot : int; source : int; partial : string }
      (** [partial] is [Delay_cdf.partial_to_string] output — opaque
          here *)
  | Failed of { slot : int; source : int; attempts : int; reason : string }
      (** worker-side supervision exhausted its retries on this source *)
  | Stats_push of {
      worker : int;
      t_coord : float;  (** echo of the pull's send stamp *)
      t_worker : float;  (** the worker's clock when it replied *)
      metrics : Omn_obs.Metrics.snapshot;
          (** full current snapshot (replaces the previous one
              coordinator-side — counters are monotonic) *)
      events : (int * Omn_obs.Timeline.entry) list;
          (** only timeline events recorded {e since the previous pull}
              (per-domain watermarks worker-side), worker-clock stamps *)
      dropped : (int * int) list;  (** cumulative per-domain ring drops *)
    }
      (** answer to [Stats_pull]; also sent once more right before
          [Leave] so the final merged artifacts see the complete run *)
  | Leave of { worker : int }
      (** graceful departure: stop assigning to me, reassign my
          in-flight sources, don't respawn me *)
  | Pong

val encode_to_worker : to_worker -> string
val decode_to_worker : string -> (to_worker, string) result
val encode_from_worker : from_worker -> string
val decode_from_worker : string -> (from_worker, string) result
