(* Chaos harness for the resilience layer: supervised retries and
   quarantine (Supervise), retrying I/O (Retry_io), CRC-framed rotated
   checkpoints (Checkpoint), the checkpoint faults of Faultgen, and the
   end-to-end guarantees on the delay-CDF pipeline — a degraded run
   completes, reports its quarantined sources exactly, and every
   surviving result is bit-identical to a fault-free run. *)

module S = Omn_resilience.Supervise
module RI = Omn_robust.Retry_io
module Checkpoint = Omn_robust.Checkpoint
module Faultgen = Omn_robust.Faultgen
module Atomic_file = Omn_robust.Atomic_file
module Err = Omn_robust.Err
module Metrics = Omn_obs.Metrics
module Pool = Omn_parallel.Pool
module Trace = Omn_temporal.Trace
module Delay_cdf = Omn_core.Delay_cdf
module Diameter = Omn_core.Diameter
module Rng = Omn_stats.Rng

let get_ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let no_sleep (_ : float) = ()

(* Backoffs of microseconds keep the retry paths fast under test. *)
let fast = { S.default with S.backoff = 1e-6; backoff_max = 1e-5 }

let with_ckpt f =
  let path = Filename.temp_file "omn_chaos" ".ckpt" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> Checkpoint.remove path) (fun () -> f path)

let flip_file ?(seed = 1) path =
  let data = Atomic_file.read_to_string path in
  Atomic_file.write_string path (Faultgen.apply ~seed Faultgen.Ckpt_flip data)

(* --- Supervise --- *)

let backoff_deterministic () =
  let p = { S.default with S.backoff = 0.1; backoff_max = 0.3; jitter_seed = 7 } in
  for attempt = 0 to 4 do
    for item = 0 to 3 do
      let d = S.backoff_delay p ~item ~attempt in
      Alcotest.(check (float 0.)) "deterministic" d (S.backoff_delay p ~item ~attempt);
      let base = Float.min p.S.backoff_max (p.S.backoff *. (2. ** float_of_int attempt)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within [base/2, base)" attempt)
        true
        (d >= 0.5 *. base && d < base)
    done
  done;
  let ds = List.init 8 (fun item -> S.backoff_delay p ~item ~attempt:0) in
  Alcotest.(check bool) "jitter varies across items" true
    (List.exists (fun d -> d <> List.hd ds) ds)

let run_task_retries_then_succeeds () =
  let calls = ref 0 and slept = ref 0 in
  let f () =
    incr calls;
    if !calls <= 2 then failwith "flaky" else 42
  in
  match S.run_task ~sleep:(fun _ -> incr slept) { fast with S.retries = 3 } ~item:0 f with
  | Ok v ->
    Alcotest.(check int) "value" 42 v;
    Alcotest.(check int) "attempts made" 3 !calls;
    Alcotest.(check int) "backoffs slept" 2 !slept
  | Error fl -> Alcotest.failf "unexpected quarantine: %a" S.pp_failure fl

let run_task_quarantines () =
  let f () = failwith "poison" in
  (match S.run_task ~sleep:no_sleep { fast with S.retries = 2 } ~item:9 f with
  | Ok _ -> Alcotest.fail "poisoned task succeeded"
  | Error fl ->
    Alcotest.(check int) "item recorded" 9 fl.S.item;
    Alcotest.(check int) "attempts = retries + 1" 3 fl.S.attempts;
    Alcotest.(check bool) "reason kept" true (Util.contains_substring fl.S.reason "poison");
    let s = Format.asprintf "%a" S.pp_failure fl in
    Alcotest.(check bool) "pp mentions the item" true (Util.contains_substring s "item 9"));
  (* quarantine = false re-raises the final exception *)
  match
    S.run_task ~sleep:no_sleep { fast with S.retries = 1; quarantine = false } ~item:0 f
  with
  | exception Failure _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "quarantine=false must re-raise"

let run_task_deadlines () =
  (* per-task deadline: a failing attempt that overran it is not retried *)
  let now = ref 0. in
  let clock () = !now in
  let calls = ref 0 in
  let f () =
    incr calls;
    now := !now +. 10.;
    failwith "slow"
  in
  (match
     S.run_task ~clock ~sleep:no_sleep
       { fast with S.retries = 5; task_deadline = Some 1. }
       ~item:0 f
   with
  | Error fl -> Alcotest.(check int) "overrun not retried" 1 fl.S.attempts
  | Ok _ -> Alcotest.fail "must fail");
  Alcotest.(check int) "one call" 1 !calls;
  (* give_up forfeits the remaining retries *)
  let calls = ref 0 in
  let f () =
    incr calls;
    failwith "x"
  in
  (match
     S.run_task ~sleep:no_sleep ~give_up:(fun () -> true) { fast with S.retries = 5 } ~item:0 f
   with
  | Error fl -> Alcotest.(check int) "gave up after first failure" 1 fl.S.attempts
  | Ok _ -> Alcotest.fail "must fail");
  (* malformed policies are rejected up front *)
  match S.run_task ~sleep:no_sleep { fast with S.retries = -1 } ~item:0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative retries accepted"

let map_run_deadline () =
  let now = ref 0. in
  let clock () = !now in
  let f _ =
    now := !now +. 100.;
    failwith "always"
  in
  let results =
    S.map ~clock ~sleep:no_sleep
      { fast with S.retries = 5; run_deadline = Some 50. }
      f (Array.init 4 Fun.id)
  in
  Alcotest.(check int) "all slots failed" 4 (List.length (S.failures results));
  List.iter
    (fun (fl : S.failure) ->
      Alcotest.(check bool) "retries forfeited once the run deadline passed" true
        (fl.S.attempts <= 2))
    (S.failures results)

let supervised_map_bit_identity () =
  let xs = Array.init 60 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      let rs = S.map ~domains ~sleep:no_sleep S.default f xs in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d at %d domains" i domains) (f i) v
          | Error fl -> Alcotest.failf "spurious failure: %a" S.pp_failure fl)
        rs)
    [ 1; 2; 4 ]

let task_fault_hook_targets_items () =
  Fun.protect ~finally:(fun () -> S.set_task_fault None) @@ fun () ->
  let xs = [| 100; 101; 102; 103; 104 |] in
  (* a transient fault (first attempt only) is retried away *)
  S.set_task_fault
    (Some (fun ~item ~attempt -> if item = 103 && attempt = 0 then failwith "transient"));
  let rs = S.map ~sleep:no_sleep ~id:(fun x -> x) { fast with S.retries = 1 } Fun.id xs in
  Alcotest.(check (list int)) "no quarantine for transient faults" []
    (List.map (fun (f : S.failure) -> f.S.item) (S.failures rs));
  (* a persistent fault quarantines exactly its item *)
  S.set_task_fault (Some (fun ~item ~attempt:_ -> if item = 101 then failwith "dead"));
  let rs = S.map ~sleep:no_sleep ~id:(fun x -> x) { fast with S.retries = 1 } Fun.id xs in
  Alcotest.(check (list int)) "exact quarantine" [ 101 ]
    (List.map (fun (f : S.failure) -> f.S.item) (S.failures rs));
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "surviving slots intact" xs.(i) v
      | Error fl -> Alcotest.(check int) "only 101 failed" 101 fl.S.item)
    rs

(* --- Retry_io --- *)

let transient_classification () =
  Alcotest.(check bool) "EINTR" true (RI.transient (Unix.Unix_error (Unix.EINTR, "read", "")));
  Alcotest.(check bool) "EAGAIN" true (RI.transient (Unix.Unix_error (Unix.EAGAIN, "read", "")));
  Alcotest.(check bool) "Sys_error EINTR text" true
    (RI.transient (Sys_error "f: Interrupted system call"));
  Alcotest.(check bool) "Injected" true (RI.transient (RI.Injected "x"));
  Alcotest.(check bool) "ENOENT is fatal" false
    (RI.transient (Unix.Unix_error (Unix.ENOENT, "open", "")));
  Alcotest.(check bool) "Failure is fatal" false (RI.transient (Failure "x"))

let retry_io_injected_faults () =
  Fun.protect ~finally:(fun () -> RI.set_inject None) @@ fun () ->
  let path = Filename.temp_file "omn_retry" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  RI.write_string path "payload";
  let fails = Atomic.make 2 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "read" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")));
  Alcotest.(check string) "read recovers through retries" "payload"
    (RI.read_to_string ~attempts:3 path);
  (* attempts exhausted: the fault surfaces *)
  Atomic.set fails 100;
  (match RI.read_to_string ~attempts:2 path with
  | exception RI.Injected _ -> ()
  | _ -> Alcotest.fail "exhausted retries must surface the fault");
  RI.set_inject None;
  (* writes are retried too, and the retries leave a consistent file *)
  let fails = Atomic.make 1 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "write" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")));
  RI.write_string ~attempts:2 path "second";
  Alcotest.(check string) "retried write landed" "second" (RI.read_to_string path);
  RI.set_inject None;
  (* non-transient exceptions are not retried *)
  let calls = ref 0 in
  match
    RI.with_retries ~attempts:5 ~sleep:no_sleep ~op:"op" ~path:"p" (fun () ->
        incr calls;
        failwith "fatal")
  with
  | exception Failure _ -> Alcotest.(check int) "fatal error tried once" 1 !calls
  | _ -> Alcotest.fail "must raise"

(* --- Checkpoint --- *)

let magic = "omn-test 1\n"

let checkpoint_roundtrip_and_corruption () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "payload-1";
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Ok (p, Checkpoint.Current) -> Alcotest.(check string) "roundtrip" "payload-1" p
  | _ -> Alcotest.fail "fresh checkpoint must load as Current");
  let good = Atomic_file.read_to_string path in
  List.iter
    (fun fault ->
      let bad = Faultgen.apply ~seed:1 fault good in
      Alcotest.(check bool) (Faultgen.name fault ^ " changes bytes") true (bad <> good);
      match Checkpoint.decode ~magic ~path bad with
      | Error (e : Err.t) ->
        Alcotest.(check bool) "typed Checkpoint error" true (e.Err.code = Err.Checkpoint)
      | Ok _ -> Alcotest.failf "%s not caught by the CRC" (Faultgen.name fault))
    [ Faultgen.Ckpt_flip; Faultgen.Ckpt_truncate 0.4 ];
  (* wrong magic (format version bump) is rejected before the CRC *)
  match Checkpoint.decode ~magic:"omn-test 2\n" ~path good with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "old-format magic accepted"

let checkpoint_stale_passes_crc () =
  (* ckpt-stale simulates a checkpoint from other parameters: the
     embedded fingerprint changes but the CRC is re-sealed, so only
     caller-level validation can catch it. *)
  with_ckpt @@ fun path ->
  let fp_payload = "fp 0123456789abcdef0123456789abcdef tail" in
  Checkpoint.save ~magic ~path fp_payload;
  let stale = Faultgen.apply ~seed:1 Faultgen.Ckpt_stale (Atomic_file.read_to_string path) in
  match Checkpoint.decode ~magic ~path stale with
  | Ok p ->
    Alcotest.(check bool) "payload differs" true (p <> fp_payload);
    Alcotest.(check int) "same length" (String.length fp_payload) (String.length p)
  | Error e -> Alcotest.failf "stale fault must keep the CRC valid: %s" (Err.to_string e)

let checkpoint_rotation_fallback () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "gen-1";
  Alcotest.(check bool) "no prev after first save" false
    (Sys.file_exists (Checkpoint.prev_path path));
  Checkpoint.save ~magic ~path "gen-2";
  Alcotest.(check bool) "prev after second save" true
    (Sys.file_exists (Checkpoint.prev_path path));
  (* corrupt current -> load falls back to the previous generation *)
  flip_file path;
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Ok (p, Checkpoint.Previous) -> Alcotest.(check string) "previous payload" "gen-1" p
  | Ok (_, Checkpoint.Current) -> Alcotest.fail "corrupt current accepted"
  | Error e -> Alcotest.failf "no fallback: %s" (Err.to_string e));
  (* saving over a corrupt current must not promote it over the good prev *)
  Checkpoint.save ~magic ~path "gen-3";
  (match Checkpoint.load ~magic ~validate:Result.ok (Checkpoint.prev_path path) with
  | Ok (p, Checkpoint.Current) -> Alcotest.(check string) "prev survived rotation" "gen-1" p
  | _ -> Alcotest.fail "corrupt current was promoted to prev");
  (* both generations corrupt -> the current generation's error wins *)
  flip_file ~seed:2 path;
  flip_file ~seed:3 (Checkpoint.prev_path path);
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Error (e : Err.t) ->
    Alcotest.(check bool) "typed" true (e.Err.code = Err.Checkpoint);
    Alcotest.(check (option string)) "cites the current file" (Some path) e.Err.file
  | Ok _ -> Alcotest.fail "double corruption accepted");
  Checkpoint.remove path;
  Alcotest.(check bool) "remove clears both generations" false
    (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path))

let checkpoint_validate_rejection_falls_back () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "good";
  Checkpoint.save ~magic ~path "bad";
  let validate p = if p = "bad" then Error (Err.v Err.Checkpoint "stale") else Ok p in
  match Checkpoint.load ~magic ~validate path with
  | Ok (p, Checkpoint.Previous) -> Alcotest.(check string) "fell back" "good" p
  | _ -> Alcotest.fail "validate rejection must fall back to prev"

let faultgen_ckpt_faults () =
  let payload = "row 00112233445566778899aabbccddeeff data" in
  let data = magic ^ payload ^ Checkpoint.crc32_hex payload in
  List.iter
    (fun fault ->
      Alcotest.(check string)
        (Faultgen.name fault ^ " deterministic")
        (Faultgen.apply ~seed:7 fault data)
        (Faultgen.apply ~seed:7 fault data))
    [ Faultgen.Ckpt_truncate 0.3; Faultgen.Ckpt_flip; Faultgen.Ckpt_stale ];
  let truncated = Faultgen.apply ~seed:7 (Faultgen.Ckpt_truncate 0.3) data in
  Alcotest.(check bool) "truncate shortens" true (String.length truncated < String.length data);
  let flipped = Faultgen.apply ~seed:7 Faultgen.Ckpt_flip data in
  Alcotest.(check int) "flip keeps length" (String.length data) (String.length flipped);
  let diffs =
    List.length
      (List.filter Fun.id (List.init (String.length data) (fun i -> data.[i] <> flipped.[i])))
  in
  Alcotest.(check int) "flip changes exactly one byte" 1 diffs;
  Alcotest.(check bool) "flip spares the magic line" true
    (String.sub flipped 0 (String.length magic) = magic);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered with the CLI enum") true
        (List.mem n Faultgen.all_names))
    [ "ckpt-truncate"; "ckpt-flip"; "ckpt-stale" ]

(* --- the pipeline under chaos --- *)

let chaos_trace = Util.random_trace (Rng.create 42) ~n:12 ~m:80 ~horizon:200
let grid = [| 1.; 5.; 20.; 50.; 100.; 200. |]

let curves_equal (a : Delay_cdf.curves) (b : Delay_cdf.curves) =
  a.grid = b.grid && a.hop_success = b.hop_success && a.hop_success_inf = b.hop_success_inf
  && a.flood_success = b.flood_success && a.flood_success_inf = b.flood_success_inf
  && a.max_rounds_used = b.max_rounds_used

let degraded_bit_identity () =
  Fun.protect ~finally:(fun () -> S.set_task_fault None) @@ fun () ->
  let poisoned = [ 2; 9 ] and flaky = [ 4 ] in
  S.set_task_fault
    (Some
       (fun ~item ~attempt ->
         if List.mem item poisoned then failwith "poison"
         else if List.mem item flaky && attempt = 0 then failwith "flaky"));
  let n = Trace.n_nodes chaos_trace in
  let survivors =
    List.filter
      (fun s -> not (List.mem s poisoned))
      (Delay_cdf.plan_order chaos_trace)
  in
  let reference = Delay_cdf.compute ~max_hops:3 ~grid ~sources:survivors chaos_trace in
  List.iter
    (fun domains ->
      let curves, p =
        get_ok (Delay_cdf.compute_resumable ~max_hops:3 ~grid ~domains ~supervise:fast chaos_trace)
      in
      let at = Printf.sprintf "at %d domains" domains in
      Alcotest.(check bool) ("complete " ^ at) false p.Delay_cdf.partial;
      Alcotest.(check int) "every source accounted for" n p.Delay_cdf.sources_done;
      Alcotest.(check (list int)) ("quarantine exact " ^ at) (List.sort compare poisoned)
        (List.sort compare (List.map (fun (f : S.failure) -> f.S.item) p.Delay_cdf.degraded));
      Alcotest.(check bool) ("surviving results bit-identical " ^ at) true
        (curves_equal curves reference))
    [ 1; 2; 3 ]

let quarantine_off_propagates () =
  Fun.protect ~finally:(fun () -> S.set_task_fault None) @@ fun () ->
  S.set_task_fault (Some (fun ~item ~attempt:_ -> if item = 5 then failwith "poison"));
  let policy = { fast with S.retries = 1; quarantine = false } in
  match Delay_cdf.compute_resumable ~max_hops:3 ~grid ~supervise:policy chaos_trace with
  | Error (e : Err.t) -> Alcotest.(check bool) "typed failure" true (e.Err.code = Err.Compute)
  | Ok _ -> Alcotest.fail "quarantine=false must abort the run"

(* An external executor (the shard fleet) returns a source's failure
   as a value; the fold must treat it as [Supervise.map] treats a
   failing task: fail the run unless the policy quarantines. *)
let executor_failure_follows_policy () =
  let executor sources =
    Array.of_list
      (List.map
         (fun s ->
           if s = 5 then Error { S.item = 5; attempts = 1; reason = "poison" }
           else Ok (Delay_cdf.source_partial ~max_hops:3 ~grid chaos_trace s))
         sources)
  in
  let run ?supervise () =
    Delay_cdf.compute_resumable ~max_hops:3 ~grid ?supervise ~executor chaos_trace
  in
  (match run () with
  | Error (e : Err.t) ->
    Alcotest.(check bool) "unsupervised: E-COMPUTE" true (e.Err.code = Err.Compute)
  | Ok _ -> Alcotest.fail "an unsupervised executor failure must abort the run");
  (match run ~supervise:{ fast with S.quarantine = false } () with
  | Error (e : Err.t) ->
    Alcotest.(check bool) "quarantine off: E-COMPUTE" true (e.Err.code = Err.Compute)
  | Ok _ -> Alcotest.fail "quarantine=false must abort the run");
  let curves, p = get_ok (run ~supervise:fast ()) in
  Alcotest.(check (list int)) "quarantine on: the failed source is degraded" [ 5 ]
    (List.map (fun (f : S.failure) -> f.S.item) p.Delay_cdf.degraded);
  let survivors = List.filter (fun s -> s <> 5) (Delay_cdf.plan_order chaos_trace) in
  Alcotest.(check bool) "surviving curves bit-identical" true
    (curves_equal curves (Delay_cdf.compute ~max_hops:3 ~grid ~sources:survivors chaos_trace))

let degraded_survives_resume () =
  Fun.protect ~finally:(fun () -> S.set_task_fault None) @@ fun () ->
  S.set_task_fault (Some (fun ~item ~attempt:_ -> if item = 7 then failwith "poison"));
  with_ckpt @@ fun path ->
  let policy = { fast with S.retries = 1 } in
  let step () =
    Delay_cdf.compute_resumable ~max_hops:3 ~grid ~checkpoint_every:4 ~checkpoint:path
      ~resume:true ~budget_seconds:0. ~supervise:policy chaos_trace
  in
  let rec drive n =
    if n > 10 then Alcotest.fail "resumed run did not converge";
    let _, p = get_ok (step ()) in
    if p.Delay_cdf.partial then drive (n + 1) else p
  in
  let p = drive 0 in
  Alcotest.(check (list int)) "quarantine list survives kill/restart" [ 7 ]
    (List.map (fun (f : S.failure) -> f.S.item) p.Delay_cdf.degraded)

let ckpt_fallback_recovers () =
  with_ckpt @@ fun path ->
  let step ?budget_seconds ~resume () =
    Delay_cdf.compute_resumable ~max_hops:3 ~grid ~checkpoint_every:3 ~checkpoint:path ~resume
      ?budget_seconds chaos_trace
  in
  ignore (get_ok (step ~budget_seconds:0. ~resume:false ()));
  ignore (get_ok (step ~budget_seconds:0. ~resume:true ()));
  (* two generations on disk; corrupt the current one *)
  flip_file path;
  let curves, p = get_ok (step ~resume:true ()) in
  Alcotest.(check bool) "fallback reported" true p.Delay_cdf.ckpt_fallback;
  Alcotest.(check bool) "run completed" false p.Delay_cdf.partial;
  let reference, p0 = get_ok (Delay_cdf.compute_resumable ~max_hops:3 ~grid chaos_trace) in
  Alcotest.(check bool) "clean run reports no fallback" false p0.Delay_cdf.ckpt_fallback;
  Alcotest.(check bool) "post-fallback curves bit-identical" true (curves_equal curves reference);
  Alcotest.(check bool) "both generations removed on completion" false
    (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path))

let diameter_threads_resilience () =
  Fun.protect ~finally:(fun () -> S.set_task_fault None) @@ fun () ->
  S.set_task_fault (Some (fun ~item ~attempt:_ -> if item = 3 then failwith "poison"));
  let curves, p =
    get_ok (Delay_cdf.compute_resumable ~max_hops:3 ~grid ~supervise:fast chaos_trace)
  in
  Alcotest.(check (list int)) "degraded surfaces in the progress" [ 3 ]
    (List.map (fun (f : S.failure) -> f.S.item) p.Delay_cdf.degraded);
  Alcotest.(check bool) "no fallback on a clean run" false p.Delay_cdf.ckpt_fallback;
  let survivors = List.filter (fun s -> s <> 3) (Delay_cdf.plan_order chaos_trace) in
  Alcotest.(check (option int)) "diameter of the surviving sources"
    (Diameter.measure ~max_hops:3 ~grid ~sources:survivors chaos_trace).Diameter.diameter
    (Diameter.of_curves curves);
  S.set_task_fault None;
  let _, clean = get_ok (Delay_cdf.compute_resumable ~max_hops:3 ~grid chaos_trace) in
  Alcotest.(check (list int)) "clean run has no degraded sources" []
    (List.map (fun (f : S.failure) -> f.S.item) clean.Delay_cdf.degraded)

let metrics_flow () =
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      S.set_task_fault None;
      RI.set_inject None;
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  Metrics.reset ();
  S.set_task_fault
    (Some
       (fun ~item ~attempt ->
         if item = 1 then failwith "poison"
         else if item = 2 && attempt = 0 then failwith "flaky"));
  let _ =
    S.map ~sleep:no_sleep ~id:(fun x -> x) { fast with S.retries = 1 } Fun.id [| 0; 1; 2; 3 |]
  in
  let total name =
    Option.value ~default:0 (Metrics.counter_total (Metrics.snapshot ()) name)
  in
  Alcotest.(check bool) "retries counted" true (total "supervise.retries" >= 1);
  Alcotest.(check bool) "failures counted" true (total "supervise.task_failures" >= 2);
  Alcotest.(check int) "quarantines counted" 1 (total "supervise.quarantined");
  S.set_task_fault None;
  (* injected I/O retries flow into resilience.io_retries *)
  let path = Filename.temp_file "omn_metrics" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  RI.write_string path "x";
  let fails = Atomic.make 1 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "read" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")));
  ignore (RI.read_to_string path);
  RI.set_inject None;
  Alcotest.(check bool) "io retries counted" true (total "resilience.io_retries" >= 1)

(* Random fault schedules (property): a run that is repeatedly killed
   (budget-expired), resumed, and occasionally hit by checkpoint
   corruption never loses acknowledged progress beyond one generation,
   never double-counts a source, and always converges to the exact
   fault-free result. *)
let prop_random_fault_schedules =
  QCheck2.Test.make ~count:25 ~name:"kill/corrupt schedules: no lost progress, no double count"
    QCheck2.Gen.(pair small_nat (list_size (int_range 0 10) (int_range 0 2)))
    (fun (tseed, events) ->
      let trace = Util.random_trace (Rng.create (1 + tseed)) ~n:10 ~m:60 ~horizon:120 in
      let grid = [| 1.; 5.; 20.; 60.; 120. |] in
      let chunk = 3 in
      let reference, _ =
        match Delay_cdf.compute_resumable ~max_hops:3 ~grid ~checkpoint_every:chunk trace with
        | Ok v -> v
        | Error e -> QCheck2.Test.fail_reportf "reference failed: %s" (Err.to_string e)
      in
      let path = Filename.temp_file "omn_prop" ".ckpt" in
      Sys.remove path;
      Fun.protect ~finally:(fun () -> Checkpoint.remove path) @@ fun () ->
      let step () =
        match
          Delay_cdf.compute_resumable ~max_hops:3 ~grid ~checkpoint_every:chunk
            ~checkpoint:path ~resume:true ~budget_seconds:0. trace
        with
        | Ok v -> v
        | Error e -> QCheck2.Test.fail_reportf "step failed: %s" (Err.to_string e)
      in
      let last_done = ref 0 in
      let rec drive events guard =
        if guard > 50 then QCheck2.Test.fail_report "schedule did not converge";
        let curves, p = step () in
        let d = p.Delay_cdf.sources_done in
        if d > p.Delay_cdf.sources_total then
          QCheck2.Test.fail_reportf "double-counted: %d of %d" d p.Delay_cdf.sources_total;
        (* a fallback re-does at most one chunk of acknowledged work *)
        if d < !last_done - chunk then
          QCheck2.Test.fail_reportf "lost progress: %d after %d" d !last_done;
        last_done := d;
        if not p.Delay_cdf.partial then begin
          if d <> p.Delay_cdf.sources_total then
            QCheck2.Test.fail_report "completed without covering every source";
          curves
        end
        else begin
          (match events with
          | 1 :: _ when Sys.file_exists (Checkpoint.prev_path path) ->
            (* corrupt the current generation; resume must fall back *)
            flip_file ~seed:tseed path
          | 2 :: _ when Sys.file_exists (Checkpoint.prev_path path) ->
            (* corrupt the previous generation; current must still load *)
            flip_file ~seed:tseed (Checkpoint.prev_path path)
          | _ -> (* clean kill/restart *) ());
          drive (match events with [] -> [] | _ :: rest -> rest) (guard + 1)
        end
      in
      let final = drive events 0 in
      curves_equal final reference)

let suite =
  [
    Alcotest.test_case "backoff deterministic, jittered, capped" `Quick backoff_deterministic;
    Alcotest.test_case "run_task retries then succeeds" `Quick run_task_retries_then_succeeds;
    Alcotest.test_case "run_task quarantines / re-raises" `Quick run_task_quarantines;
    Alcotest.test_case "task deadline and give_up" `Quick run_task_deadlines;
    Alcotest.test_case "run deadline stops retrying" `Quick map_run_deadline;
    Alcotest.test_case "supervised map keeps slot identity" `Quick supervised_map_bit_identity;
    Alcotest.test_case "task-fault hook targets items" `Quick task_fault_hook_targets_items;
    Alcotest.test_case "transient error classification" `Quick transient_classification;
    Alcotest.test_case "retry_io recovers from injected faults" `Quick retry_io_injected_faults;
    Alcotest.test_case "checkpoint CRC catches flip/truncate" `Quick
      checkpoint_roundtrip_and_corruption;
    Alcotest.test_case "stale fault passes CRC (fingerprint's job)" `Quick
      checkpoint_stale_passes_crc;
    Alcotest.test_case "rotation falls back, never promotes corrupt" `Quick
      checkpoint_rotation_fallback;
    Alcotest.test_case "validate rejection falls back" `Quick
      checkpoint_validate_rejection_falls_back;
    Alcotest.test_case "faultgen checkpoint faults" `Quick faultgen_ckpt_faults;
    Alcotest.test_case "degraded run: exact quarantine, bit-identical rest" `Quick
      degraded_bit_identity;
    Alcotest.test_case "quarantine off aborts the run" `Quick quarantine_off_propagates;
    Alcotest.test_case "executor failures follow the run's policy" `Quick
      executor_failure_follows_policy;
    Alcotest.test_case "degraded list survives kill/restart" `Quick degraded_survives_resume;
    Alcotest.test_case "corrupt checkpoint falls back to .prev" `Quick ckpt_fallback_recovers;
    Alcotest.test_case "diameter threads resilience through" `Quick diameter_threads_resilience;
    Alcotest.test_case "retry/fault/fallback counts reach metrics" `Quick metrics_flow;
    QCheck_alcotest.to_alcotest prop_random_fault_schedules;
  ]
