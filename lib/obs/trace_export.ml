let schema = "omn-timeline 1"

(* The viewer expects integer-ish microseconds; floats are accepted but
   rounding here keeps files small and diff-friendly. *)
let micros t = Json.Float (Float.round (t *. 1e6))

(* Event start time: duration events carry their own start, instants
   start at their stamp. Used to anchor the trace at ts = 0. *)
let start_of (e : Timeline.entry) =
  match e.ev with
  | Chunk { start; _ } | Pool_work { start; _ } | Shard_compute { start; _ } -> start
  | Queue_wait { seconds } | Ckpt_write { seconds; _ } -> e.ts -. seconds
  | _ -> e.ts

let duration_event ?(pid = 1) ~t0 ~tid ~name ~cat ~start ~finish args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String "X");
       ("ts", micros (start -. t0));
       ("dur", micros (Float.max 0. (finish -. start)));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | _ -> [ ("args", Json.Obj args) ])

let instant_event ?(pid = 1) ~t0 ~tid ~name ~cat ~ts args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String "i");
       ("s", Json.String "t");
       ("ts", micros (ts -. t0));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | _ -> [ ("args", Json.Obj args) ])

let counter_event ?(pid = 1) ~t0 ~tid ~ts args =
  Json.Obj
    [
      ("name", Json.String "gc");
      ("cat", Json.String "gc");
      ("ph", Json.String "C");
      ("ts", micros (ts -. t0));
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let metadata ?(pid = 1) ~name ~tid args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let event_json ?pid ~t0 (domain, (e : Timeline.entry)) =
  let tid = domain in
  let duration_event = duration_event ?pid
  and instant_event = instant_event ?pid
  and counter_event = counter_event ?pid in
  match e.ev with
  | Timeline.Chunk { index; items; start } ->
    duration_event ~t0 ~tid ~name:"chunk" ~cat:"driver" ~start ~finish:e.ts
      [ ("index", Json.Int index); ("items", Json.Int items) ]
  | Pool_work { start; stolen } ->
    duration_event ~t0 ~tid ~name:"pool.work" ~cat:"pool" ~start ~finish:e.ts
      [ ("stolen", Json.Bool stolen) ]
  | Steal -> instant_event ~t0 ~tid ~name:"steal" ~cat:"pool" ~ts:e.ts []
  | Queue_wait { seconds } ->
    duration_event ~t0 ~tid ~name:"queue.wait" ~cat:"pool" ~start:(e.ts -. seconds)
      ~finish:e.ts []
  | Ckpt_write { path; seconds } ->
    duration_event ~t0 ~tid ~name:"checkpoint.write" ~cat:"checkpoint"
      ~start:(e.ts -. seconds) ~finish:e.ts
      [ ("path", Json.String path) ]
  | Ckpt_rotate { path } ->
    instant_event ~t0 ~tid ~name:"checkpoint.rotate" ~cat:"checkpoint" ~ts:e.ts
      [ ("path", Json.String path) ]
  | Ckpt_fallback { path } ->
    instant_event ~t0 ~tid ~name:"checkpoint.fallback" ~cat:"checkpoint" ~ts:e.ts
      [ ("path", Json.String path) ]
  | Retry { item; attempt } ->
    instant_event ~t0 ~tid ~name:"retry" ~cat:"supervise" ~ts:e.ts
      [ ("item", Json.Int item); ("attempt", Json.Int attempt) ]
  | Quarantine { item; attempts } ->
    instant_event ~t0 ~tid ~name:"quarantine" ~cat:"supervise" ~ts:e.ts
      [ ("item", Json.Int item); ("attempts", Json.Int attempts) ]
  | Io_retry { op } ->
    instant_event ~t0 ~tid ~name:"io.retry" ~cat:"io" ~ts:e.ts
      [ ("op", Json.String op) ]
  | Gc_sample { minor; major; heap_words } ->
    counter_event ~t0 ~tid ~ts:e.ts
      [
        ("minor_collections", Json.Int minor);
        ("major_collections", Json.Int major);
        ("heap_words", Json.Int heap_words);
      ]
  | Mark { name } -> instant_event ~t0 ~tid ~name ~cat:"mark" ~ts:e.ts []
  | Worker_spawn { worker; pid } ->
    instant_event ~t0 ~tid ~name:"worker.spawn" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker); ("pid", Json.Int pid) ]
  | Heartbeat_miss { worker } ->
    instant_event ~t0 ~tid ~name:"heartbeat.miss" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker) ]
  | Frame_corrupt { worker } ->
    instant_event ~t0 ~tid ~name:"frame.corrupt" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker) ]
  | Reassign { source; from_worker; to_worker } ->
    instant_event ~t0 ~tid ~name:"reassign" ~cat:"shard" ~ts:e.ts
      [
        ("source", Json.Int source);
        ("from_worker", Json.Int from_worker);
        ("to_worker", Json.Int to_worker);
      ]
  | Worker_rejoin { worker } ->
    instant_event ~t0 ~tid ~name:"worker.rejoin" ~cat:"shard" ~ts:e.ts [ ("worker", Json.Int worker) ]
  | Member_join { worker } ->
    instant_event ~t0 ~tid ~name:"member.join" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker) ]
  | Member_leave { worker } ->
    instant_event ~t0 ~tid ~name:"member.leave" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker) ]
  | Auth_reject { reason } ->
    instant_event ~t0 ~tid ~name:"auth.reject" ~cat:"shard" ~ts:e.ts
      [ ("reason", Json.String reason) ]
  | Trace_ship { worker; bytes } ->
    instant_event ~t0 ~tid ~name:"trace.ship" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker); ("bytes", Json.Int bytes) ]
  | Trace_cache_hit { worker } ->
    instant_event ~t0 ~tid ~name:"trace.cache_hit" ~cat:"shard" ~ts:e.ts
      [ ("worker", Json.Int worker) ]
  | Sample_round { round; sampled; width } ->
    instant_event ~t0 ~tid ~name:"sample.round" ~cat:"sample" ~ts:e.ts
      [ ("round", Json.Int round); ("sampled", Json.Int sampled); ("width", Json.Float width) ]
  | Shard_compute { source; start } ->
    duration_event ~t0 ~tid ~name:"shard.compute" ~cat:"shard" ~start ~finish:e.ts
      [ ("source", Json.Int source) ]

let to_json ?manifest (view : Timeline.view) =
  let t0 =
    List.fold_left
      (fun acc (_, e) -> Float.min acc (start_of e))
      infinity view.events
  in
  let t0 = if t0 = infinity then 0. else t0 in
  let domains =
    List.sort_uniq compare
      (List.map fst view.dropped @ List.map fst view.events)
  in
  let meta =
    metadata ~name:"process_name" ~tid:0 [ ("name", Json.String "omn") ]
    :: List.concat_map
         (fun d ->
           [
             metadata ~name:"thread_name" ~tid:d
               [ ("name", Json.String (Printf.sprintf "domain %d" d)) ];
             metadata ~name:"thread_sort_index" ~tid:d [ ("sort_index", Json.Int d) ];
           ])
         domains
  in
  let events = List.map (event_json ~t0) view.events in
  let omn =
    [
      ("schema", Json.String schema);
      ("t0_unix_s", Json.Float t0);
      ("events", Json.Int (List.length view.events));
      ("dropped_events", Json.Int (Timeline.total_dropped view));
      ( "dropped_per_domain",
        Json.Obj (List.map (fun (d, n) -> (string_of_int d, Json.Int n)) view.dropped) );
      ("ring_capacity", Json.Int view.capacity);
    ]
    @ match manifest with Some m -> [ ("manifest", m) ] | None -> []
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
      ("omn", Json.Obj omn);
    ]

let write ?manifest ~path view =
  Omn_robust.Retry_io.write_string path (Json.to_string ~pretty:true (to_json ?manifest view) ^ "\n")

(* --- fleet merge ------------------------------------------------------- *)

type fleet_worker = {
  fw_worker : int;
  fw_events : (int * Timeline.entry) list;
  fw_dropped : (int * int) list;
  fw_offset : float;
  fw_rtt : float;
}

let fleet_pid w = w.fw_worker + 2

(* Shift a worker-clock entry onto the coordinator clock: subtract the
   estimated offset from the stamp and from any embedded start.
   Durations (Queue_wait/Ckpt_write seconds) are clock-free. *)
let correct_entry off (e : Timeline.entry) =
  let ts = e.ts -. off in
  let ev =
    match e.ev with
    | Timeline.Chunk c -> Timeline.Chunk { c with start = c.start -. off }
    | Pool_work p -> Pool_work { p with start = p.start -. off }
    | Shard_compute s -> Shard_compute { s with start = s.start -. off }
    | ev -> ev
  in
  { Timeline.ts; ev }

let fleet_to_json ?manifest ~(coordinator : Timeline.view) workers =
  let workers = List.sort (fun a b -> compare a.fw_worker b.fw_worker) workers in
  let corrected =
    List.map
      (fun w ->
        (w, List.map (fun (d, e) -> (d, correct_entry w.fw_offset e)) w.fw_events))
      workers
  in
  let t0 =
    List.fold_left
      (fun acc (_, e) -> Float.min acc (start_of e))
      infinity
      (coordinator.Timeline.events @ List.concat_map snd corrected)
  in
  let t0 = if t0 = infinity then 0. else t0 in
  let domains_of dropped events =
    List.sort_uniq compare (List.map fst dropped @ List.map fst events)
  in
  let process_meta ~pid ~pname dropped events =
    metadata ~pid ~name:"process_name" ~tid:0 [ ("name", Json.String pname) ]
    :: metadata ~pid ~name:"process_sort_index" ~tid:0 [ ("sort_index", Json.Int pid) ]
    :: List.concat_map
         (fun d ->
           [
             metadata ~pid ~name:"thread_name" ~tid:d
               [ ("name", Json.String (Printf.sprintf "domain %d" d)) ];
             metadata ~pid ~name:"thread_sort_index" ~tid:d [ ("sort_index", Json.Int d) ];
           ])
         (domains_of dropped events)
  in
  let meta =
    process_meta ~pid:1 ~pname:"omn coordinator" coordinator.Timeline.dropped
      coordinator.Timeline.events
    @ List.concat_map
        (fun (w, events) ->
          process_meta ~pid:(fleet_pid w)
            ~pname:(Printf.sprintf "worker %d" w.fw_worker)
            w.fw_dropped events)
        corrected
  in
  let events =
    List.map (event_json ~t0) coordinator.Timeline.events
    @ List.concat_map
        (fun (w, events) -> List.map (event_json ~pid:(fleet_pid w) ~t0) events)
        corrected
  in
  let sum_dropped l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  let fleet =
    List.map
      (fun (w, events) ->
        Json.Obj
          [
            ("worker", Json.Int w.fw_worker);
            ("pid", Json.Int (fleet_pid w));
            ("clock_offset_s", Json.Float w.fw_offset);
            ("rtt_s", Json.Float w.fw_rtt);
            ("events", Json.Int (List.length events));
            ("dropped", Json.Int (sum_dropped w.fw_dropped));
          ])
      corrected
  in
  let dropped_total =
    Timeline.total_dropped coordinator
    + List.fold_left (fun acc w -> acc + sum_dropped w.fw_dropped) 0 workers
  in
  let omn =
    [
      ("schema", Json.String schema);
      ("t0_unix_s", Json.Float t0);
      ("events", Json.Int (List.length events));
      ("dropped_events", Json.Int dropped_total);
      ( "dropped_per_domain",
        Json.Obj
          (List.map (fun (d, n) -> (string_of_int d, Json.Int n)) coordinator.Timeline.dropped)
      );
      ("ring_capacity", Json.Int coordinator.Timeline.capacity);
      ("fleet", Json.List fleet);
    ]
    @ match manifest with Some m -> [ ("manifest", m) ] | None -> []
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
      ("omn", Json.Obj omn);
    ]

let fleet_write ?manifest ~path ~coordinator workers =
  Omn_robust.Retry_io.write_string path
    (Json.to_string ~pretty:true (fleet_to_json ?manifest ~coordinator workers) ^ "\n")
