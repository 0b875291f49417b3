(* daemon_mixed: designers who each wait for their reply.  Two client
   connections from this process drive a spawned
   [choreographerd --workers 2] in a closed loop (a connection sends its
   next request only once the previous reply is in).  Each request is
   dealt from a seeded mix over a fixed universe of distinct requests,
   so every reply can be checked against a stored digest:

   - 3 in 10: tandem solves, capacity 4..19 with one of six arrival
     rates (96 sources, three times the 32-entry cache), auto or
     BiCGStab;
   - 2 in 10: [Proc[n]] solves, n = 2..10, half under [--aggregate both];
   - 1 in 10 each: roaming.pepa under symmetry, roaming.pepa fluid,
     roaming.pepanet, the PDA pipeline, a 4-point warm-start rate sweep. *)

open Common
module Pr = Service.Protocol
module Client = Service.Client

type req = { key : string; verb : string; request : Pr.request }

let clients = 2
let workers = 2
let cache = 32
let ref_file = "daemon_mixed.tsv"

(* ------------------------------------------------------------------ *)
(* The request universe                                                *)
(* ------------------------------------------------------------------ *)

let options ?method_ ?(aggregate = Markov.Lump.No_agg) ?fluid () =
  { Pr.default_options with Pr.method_; aggregate; fluid; jobs = 1 }

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_once: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let capacities = Array.init 16 (fun i -> i + 4)
let arrivals = [| 1.0; 1.25; 1.5; 1.75; 2.0; 2.25 |]
let methods = [| None; Some Markov.Steady.Bicgstab |]
let replicas = Array.init 9 (fun i -> i + 2)
let proc_aggregates = [| Markov.Lump.No_agg; Markov.Lump.Both |]

let sweeps =
  [|
    ("connect_r", [ 0.5; 1.0; 1.5; 2.0 ]);
    ("transmit_r", [ 2.0; 3.0; 4.0; 5.0 ]);
    ("disconnect_r", [ 1.0; 1.5; 2.0; 2.5 ]);
  |]

let solve ~key ~kind ~name ~source options =
  { key; verb = "solve"; request = Pr.Solve { kind; name; source; options } }

let tandem c arrive method_ =
  let source =
    replace_once ~sub:"arrive = 1.5;"
      ~by:(Printf.sprintf "arrive = %g;" arrive)
      (Scenarios.Tandem.source ~stations:3 ~capacity:c)
  in
  solve
    ~key:
      (Printf.sprintf "solve tandem c=%d arrive=%g method=%s" c arrive
         (Pr.method_to_string method_))
    ~kind:Pr.Pepa ~name:(Printf.sprintf "tandem_%d.pepa" c) ~source (options ?method_ ())

let proc n aggregate =
  let source =
    Printf.sprintf
      "Proc = (task, 1.0).(swap, 2.0).Proc;\n\
       Srv = (task, infty).(log, 5.0).Srv;\n\
       system (Proc[%d]) <task> Srv;\n"
      n
  in
  solve
    ~key:(Printf.sprintf "solve proc n=%d aggregate=%s" n (Markov.Lump.mode_to_string aggregate))
    ~kind:Pr.Pepa ~name:(Printf.sprintf "proc_%d.pepa" n) ~source (options ~aggregate ())

type universe = {
  tandems : req array array array;  (** by capacity, arrival rate, method *)
  procs : req array;
  singles : req array;  (** roaming symmetry, roaming fluid, roaming net, pipeline *)
  sweep_reqs : req array;
}

let universe () =
  let roaming = input "roaming.pepa" in
  {
    tandems =
      Array.map (fun c -> Array.map (fun a -> Array.map (tandem c a) methods) arrivals) capacities;
    procs = Array.concat (Array.to_list (Array.map (fun n -> Array.map (proc n) proc_aggregates) replicas));
    singles =
      [|
        solve ~key:"solve roaming.pepa aggregate=symmetry" ~kind:Pr.Pepa ~name:"roaming.pepa"
          ~source:roaming (options ~aggregate:Markov.Lump.Symmetry ());
        solve ~key:"solve roaming.pepa fluid" ~kind:Pr.Pepa ~name:"roaming.pepa" ~source:roaming
          (options ~fluid:Fluid.Rk45.default_tolerances ());
        solve ~key:"solve roaming.pepanet" ~kind:Pr.Net ~name:"roaming.pepanet"
          ~source:(input "roaming.pepanet") (options ());
        {
          key = "pipeline pda.uml pda.rates";
          verb = "pipeline";
          request =
            Pr.Pipeline
              {
                name = "pda.uml";
                document = input "pda.uml";
                rates = Some (input "pda.rates");
                options = options ();
              };
        };
      |];
    sweep_reqs =
      Array.map
        (fun (rate, values) ->
          {
            key = Printf.sprintf "sweep roaming.pepa %s" rate;
            verb = "sweep";
            request =
              Pr.Sweep
                {
                  kind = Pr.Pepa;
                  name = "roaming.pepa";
                  source = roaming;
                  options = options ~aggregate:Markov.Lump.Symmetry ();
                  axes = [ { Pr.target = `Rate rate; values } ];
                  backend = Pr.Exact;
                  warm_start = true;
                };
          })
        sweeps;
  }

let all_requests u =
  let tandems = Array.concat (List.concat_map Array.to_list (Array.to_list u.tandems)) in
  Array.concat [ tandems; u.procs; u.singles; u.sweep_reqs ]

(* One client's request stream.  The class of each request is dealt
   from a deck of ten (3 tandem, 2 Proc, 1 of each single request, 1
   sweep); a tandem's capacity and method are dealt from the deck of
   all 32 pairs, and its arrival rate from a deck of the six rates kept
   for that pair.  Every run thus has the same mix, while which sources
   repeat within the cache's reach is left to the shuffles. *)
let stream u rng =
  let classes =
    Deck.create rng [ `Tandem; `Tandem; `Tandem; `Proc; `Proc; `Single 0; `Single 1; `Single 2; `Single 3; `Sweep ]
  in
  let n_methods = Array.length methods in
  let tandems =
    Deck.create rng
      (List.concat_map (fun c -> List.init n_methods (fun m -> (c, m)))
         (List.init (Array.length capacities) Fun.id))
  in
  let rates =
    Array.init (Array.length capacities * n_methods) (fun _ ->
        Deck.create rng (List.init (Array.length arrivals) Fun.id))
  in
  let procs = Deck.create rng (Array.to_list u.procs) in
  let sweeps = Deck.create rng (Array.to_list u.sweep_reqs) in
  fun () ->
    match Deck.deal classes with
    | `Tandem ->
        let c, m = Deck.deal tandems in
        u.tandems.(c).(Deck.deal rates.((c * n_methods) + m)).(m)
    | `Proc -> Deck.deal procs
    | `Single i -> u.singles.(i)
    | `Sweep -> Deck.deal sweeps

(* What a reply is checked on: the CLI output and the structured data,
   minus the sweep's wall-clock fields; or the error code and message. *)
let rec strip_timing = function
  | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "solve_s" || k = "total_s" then None else Some (k, strip_timing v))
           kvs)
  | Obs.Json.Arr l -> Obs.Json.Arr (List.map strip_timing l)
  | j -> j

let reply_text = function
  | Pr.Ok_response { output; data; _ } ->
      "ok\n" ^ output ^ "\n" ^ Obs.Json.to_string (strip_timing data)
  | Pr.Error_response { code; message } -> Printf.sprintf "error %d\n%s" code message

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; ledger : string; log : string }

let spawn ~exe ~tag =
  ensure_run_dir ();
  let base = Filename.concat run_dir (Printf.sprintf "d%d-%s" (Unix.getpid ()) tag) in
  let socket = base ^ ".sock" and ledger = base ^ ".ledger" and log = base ^ ".log" in
  if Sys.file_exists ledger then Sys.remove ledger;
  let env =
    Array.of_list
      (List.filter
         (fun e -> not (String.starts_with ~prefix:"CHOREOGRAPHER_" e))
         (Array.to_list (Unix.environment ())))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [|
      exe; "--socket"; socket; "--workers"; string_of_int workers; "--cache";
      string_of_int cache; "--ledger"; ledger;
    |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process_env exe argv env null out out)
  in
  { pid; socket; ledger; log }

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> None
  | _, status -> Some status

(* Polled every 0.2 ms: start-up takes a few milliseconds, so a coarser
   poll would quantise [setup_s]. *)
let rec connect_ready d deadline =
  match Client.connect ~socket:d.socket () with
  | conn -> conn
  | exception Client.Connection_error msg ->
      if exited d <> None then failwith ("choreographerd exited during start-up; see " ^ d.log);
      if now () > deadline then failwith ("choreographerd did not start: " ^ msg);
      Unix.sleepf 0.0002;
      connect_ready d deadline

(* A worker serves one connection until it closes, so every control
   exchange gets a short connection of its own: an idle one left open
   would hold a worker away from the clients. *)
let with_conn d f =
  let conn = Client.connect ~socket:d.socket () in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)

(* Ask for a clean shutdown, wait for the exit, and kill the process if
   it does not go within ten seconds.  True on a clean exit. *)
let stop d =
  (try with_conn d (fun conn -> ignore (Client.request conn Pr.Shutdown)) with _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match exited d with
    | Some status -> status = Unix.WEXITED 0
    | None when now () > deadline ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
    | None ->
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()

let stats d =
  with_conn d (fun conn ->
      match Client.request conn Pr.Stats with
      | Pr.Ok_response { data; _ } -> data
      | Pr.Error_response { message; _ } -> failwith ("stats failed: " ^ message))

(* Spawn until the first [stats] reply. *)
let start ~exe ~tag =
  let t0 = now () in
  let d = spawn ~exe ~tag in
  match
    let conn = connect_ready d (t0 +. 60.0) in
    Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> Client.request conn Pr.Stats)
  with
  | Pr.Ok_response _ -> (d, now () -. t0)
  | Pr.Error_response { message; _ } ->
      ignore (stop d);
      failwith ("stats failed: " ^ message)
  | exception e ->
      ignore (stop d);
      raise e

let http_get socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let request = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd request 0 (String.length request));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec loop () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            loop ()
      in
      loop ())

let prometheus_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type record = {
  req : req;
  latency : float;
  finished : float;  (** since the start of the timed phase *)
  ok : bool;
  reply : Pr.response option;
}

(* One client connection: send, wait, check, repeat until the
   deadline.  A transport failure counts as a failed request and the
   connection is re-opened once; a second failure ends this client. *)
let client_loop ~socket ~next ~refs ~t_start ~deadline ~keep =
  let records = ref [] in
  let rec loop conn =
    if now () >= deadline then Client.close conn
    else begin
      let req = next () in
      let t0 = now () in
      match Client.request conn req.request with
      | reply ->
          let t1 = now () in
          let ok = matches refs req.key (reply_text reply) in
          records :=
            { req; latency = t1 -. t0; finished = t1 -. t_start; ok; reply = (if keep then Some reply else None) }
            :: !records;
          loop conn
      | exception (Client.Connection_error _ | Pr.Protocol_error _ | Service.Frame.Frame_error _) ->
          let t1 = now () in
          records :=
            { req; latency = t1 -. t0; finished = t1 -. t_start; ok = false; reply = None } :: !records;
          Client.close conn;
          (match Client.connect ~socket () with
          | conn -> loop conn
          | exception Client.Connection_error _ -> ())
    end
  in
  loop (Client.connect ~socket ());
  !records

(* Remove the ledgers, logs and sockets of every daemon this process
   started. *)
let cleanup () =
  let prefix = Printf.sprintf "d%d-" (Unix.getpid ()) in
  if Sys.file_exists run_dir then
    Array.iter
      (fun f -> if String.starts_with ~prefix f then Sys.remove (Filename.concat run_dir f))
      (Sys.readdir run_dir)

let setup_repeats = 5

type closed_loop = {
  records : record list;
  setup_s : float;
  final_stats : Obs.Json.t;
  metrics_body : string;
  daemon_rss_mb : float;
  ledger : Obs.Ledger.record list;  (** the timed daemon's records *)
  ledger_bytes : int;
  clean_exit : bool;
}

let closed_loop ~exe ~seed ~seconds ~keep =
  let universe = universe () in
  let refs = load_table ref_file in
  (* Set-up repeats: start, first stats reply, stop; the last daemon
     started stays up for the timed phase. *)
  let startups =
    List.init (setup_repeats - 1) (fun i ->
        let d, dt = start ~exe ~tag:(string_of_int i) in
        ignore (stop d);
        dt)
  in
  let d, dt = start ~exe ~tag:"run" in
  let result =
    match
      let t_start = now () in
      let deadline = t_start +. seconds in
      let domains =
        List.init clients (fun i ->
            let next = stream universe (rng ~seed (10 + i)) in
            Domain.spawn (fun () -> client_loop ~socket:d.socket ~next ~refs ~t_start ~deadline ~keep))
      in
      let records = List.concat_map Domain.join domains in
      let final_stats = stats d in
      let metrics_body = http_get d.socket "/metrics" in
      let daemon_rss_mb = peak_rss_mb ~pid:d.pid () in
      (records, final_stats, metrics_body, daemon_rss_mb)
    with
    | v -> Ok v
    | exception e -> Error e
  in
  let clean_exit = stop d in
  let ledger_text = if Sys.file_exists d.ledger then read_file d.ledger else "" in
  cleanup ();
  match result with
  | Error e -> raise e
  | Ok (records, final_stats, metrics_body, daemon_rss_mb) ->
      {
        records;
        setup_s = median (dt :: startups);
        final_stats;
        metrics_body;
        daemon_rss_mb;
        ledger =
          List.filter_map
            (fun line ->
              if String.trim line = "" then None
              else Some (Obs.Ledger.of_json (Obs.Json.of_string line)))
            (String.split_on_char '\n' ledger_text);
        ledger_bytes = String.length ledger_text;
        clean_exit;
      }

let counts s =
  let n = List.length s.records in
  (n, List.length (List.filter (fun r -> not r.ok) s.records))

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let run ~exe ~seed ~seconds =
  let s = closed_loop ~exe ~seed ~seconds ~keep:false in
  let n, failed = counts s in
  let lat = List.map (fun r -> r.latency) s.records in
  {
    attempted = n;
    failed;
    checks_ok = s.clean_exit;
    metrics =
      [
        m "setup_s" "s" s.setup_s;
        m "ops_per_s" "1/s" (windowed_rate ~seconds (List.map (fun r -> r.finished) s.records));
        m "latency_p50_ms" "ms" (1e3 *. median lat);
        m "latency_p99_ms" "ms" (1e3 *. percentile 99.0 lat);
        m "peak_rss_mb" "MB" s.daemon_rss_mb;
      ];
    notes =
      [
        Printf.sprintf "latency samples: %d requests over %d connections (closed loop)" n clients;
        "peak_rss_mb: VmHWM of choreographerd, read before shutdown";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let stage_names = [ "parse"; "compile"; "derive"; "solve"; "integrate"; "ingest"; "pipeline"; "sweep" ]

(* Client-side codec cost of the exchanged stream: both directions of
   JSON encoding, framing and decoding, as client and daemon do them. *)
let codec_seconds pairs =
  snd
    (time (fun () ->
         List.iter
           (fun (request, reply) ->
             let payload = Obs.Json.to_string (Pr.request_to_json request) in
             ignore (Service.Frame.encode payload);
             ignore (Pr.request_of_json (Obs.Json.of_string payload));
             let payload = Obs.Json.to_string (Pr.response_to_json reply) in
             ignore (Service.Frame.encode payload);
             ignore (Pr.response_of_json (Obs.Json.of_string payload)))
           pairs))

(* Request family: the verb and the model, without the parameters. *)
let family key =
  match String.split_on_char ' ' key with a :: b :: _ -> a ^ " " ^ b | _ -> key

let family_lines records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let f = family r.req.key in
      Hashtbl.replace tbl f (r.latency :: Option.value ~default:[] (Hashtbl.find_opt tbl f)))
    records;
  Hashtbl.fold (fun f lat acc -> (f, lat) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (f, lat) ->
         Printf.sprintf "%-20s n=%4d rtt p50 %8.2f ms, max %8.2f ms, total %7.3f s" f
           (List.length lat) (1e3 *. median lat) (1e3 *. percentile 100.0 lat) (sum lat))

let trace ~exe ~seed ~seconds =
  let s = closed_loop ~exe ~seed ~seconds ~keep:true in
  let n, failed = counts s in
  let timed =
    List.filter
      (fun r -> r.Obs.Ledger.tool <> "choreographerd stats" && r.Obs.Ledger.tool <> "choreographerd shutdown")
      s.ledger
  in
  let stage_sum name =
    sum (List.map (fun r -> Option.value ~default:0.0 (List.assoc_opt name r.Obs.Ledger.stages)) timed)
  in
  let all_stages = sum (List.concat_map (fun r -> List.map snd r.Obs.Ledger.stages) timed) in
  let rtt = sum (List.map (fun r -> r.latency) s.records) in
  let per_req x = x /. float_of_int (max 1 (List.length timed)) in
  (* 0 when a run too short to reach the verb saw none of it. *)
  let rtt_p50 verb =
    match List.filter_map (fun r -> if r.req.verb = verb then Some r.latency else None) s.records with
    | [] -> 0.0
    | lat -> 1e3 *. median lat
  in
  let cache key =
    Option.bind (Obs.Json.member "cache" s.final_stats) (Obs.Json.member key)
    |> Fun.flip Option.bind Obs.Json.to_float
    |> Option.value ~default:0.0
  in
  let hits = cache "hits" and misses = cache "misses" in
  let pairs =
    List.filter_map (fun r -> Option.map (fun reply -> (r.req.request, reply)) r.reply) s.records
  in
  {
    attempted = n;
    failed;
    checks_ok = s.clean_exit && List.length timed = n;
    metrics =
      [
        m "service.rtt_solve_p50_ms" "ms" (rtt_p50 "solve");
        m "service.rtt_pipeline_p50_ms" "ms" (rtt_p50 "pipeline");
        m "service.rtt_sweep_p50_ms" "ms" (rtt_p50 "sweep");
        m "service.codec_us" "us" (1e6 *. codec_seconds pairs /. float_of_int (max 1 (List.length pairs)));
        m "service.cache_hit_ratio" "ratio" (hits /. (hits +. misses));
        m "service.cache_evictions" "1/req" (cache "evictions" /. float_of_int n);
        m "service.cache_stage_hits" "1/req"
          (prometheus_value s.metrics_body "choreographer_cache_stage_hits_total"
          /. float_of_int n);
      ]
      @ List.map (fun name -> m ("service.stage_" ^ name ^ "_s") "s" (per_req (stage_sum name))) stage_names
      @ [
          m "service.outside_stages_share" "ratio" (1.0 -. (all_stages /. rtt));
          m "obs.ledger_bytes_per_request" "B"
            (float_of_int s.ledger_bytes /. float_of_int (max 1 (List.length s.ledger)));
          m "coverage" "ratio" (all_stages /. rtt);
        ];
    notes =
      [
        Printf.sprintf "requests: %d; ledger records for them: %d; daemon exit %s" n
          (List.length timed) (if s.clean_exit then "clean" else "NOT CLEAN");
        "service.stage_*_s are seconds per request, summed from the ledger's stages";
        "coverage here is the share of client round-trip time inside ledger stages";
      ]
      @ family_lines s.records;
  }

(* ------------------------------------------------------------------ *)
(* Reference generation                                                *)
(* ------------------------------------------------------------------ *)

(* Each distinct request answered cold by a fresh in-process engine. *)
let write_reference () =
  save_table ref_file
    (Array.to_list
       (Array.map
          (fun r ->
            let engine = Service.Engine.create ~cache_capacity:cache () in
            (r.key, digest (reply_text (Service.Engine.handle engine r.request).Service.Engine.response)))
          (all_requests (universe ()))))
