let value_json : Span.value -> Json.t = function
  | Span.Int i -> Json.Num (float_of_int i)
  | Span.Float v -> Json.Num v
  | Span.Str s -> Json.Str s
  | Span.Bool b -> Json.Bool b

let value_text : Span.value -> string = function
  | Span.Int i -> string_of_int i
  | Span.Float v -> Printf.sprintf "%g" v
  | Span.Str s -> s
  | Span.Bool b -> string_of_bool b

let attrs_text attrs =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ value_text v) attrs)

(* ---------------------------------------------------------------- *)
(* stderr tree printer                                               *)
(* ---------------------------------------------------------------- *)

let stderr_installed = ref false

let install_stderr () =
  if not !stderr_installed then begin
    stderr_installed := true;
    Span.on_complete (fun (c : Span.completed) ->
        if Config.at_least Config.Debug || (Config.at_least Config.Info && c.depth <= 1) then
          Printf.eprintf "[obs] %s%-32s %8.3f ms  %s\n%!"
            (String.make (2 * c.depth) ' ')
            c.name (1e3 *. c.duration_s) (attrs_text c.attrs))
  end

(* ---------------------------------------------------------------- *)
(* JSON-lines event sink                                             *)
(* ---------------------------------------------------------------- *)

let span_json (c : Span.completed) =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("id", Json.Num (float_of_int c.id));
      ("parent", Json.Num (float_of_int c.parent));
      ("depth", Json.Num (float_of_int c.depth));
      ("name", Json.Str c.name);
      ("start_s", Json.Num c.start_s);
      ("duration_s", Json.Num c.duration_s);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) c.attrs));
    ]

let install_jsonl oc =
  Span.on_complete (fun c ->
      output_string oc (Json.to_string (span_json c));
      output_char oc '\n';
      flush oc)

(* ---------------------------------------------------------------- *)
(* Chrome trace_event exporter                                       *)
(* ---------------------------------------------------------------- *)

let chrome_trace ?(series = []) spans =
  let event (c : Span.completed) =
    Json.Obj
      [
        ("name", Json.Str c.name);
        ("cat", Json.Str "choreographer");
        ("ph", Json.Str "X");
        ("ts", Json.Num (1e6 *. c.start_s));
        ("dur", Json.Num (1e6 *. c.duration_s));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("args", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) c.attrs));
      ]
  in
  (* (x, y) series — the sampler's residual/heap curves — become
     Chrome counter events, which the trace viewer draws as a stacked
     chart lane above the span track. *)
  let counter_event name (x, y) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str "choreographer");
        ("ph", Json.Str "C");
        ("ts", Json.Num (1e6 *. x));
        ("pid", Json.Num 1.0);
        ("args", Json.Obj [ ("value", Json.Num y) ]);
      ]
  in
  let counter_events =
    List.concat_map (fun (name, pts) -> List.map (counter_event name) pts) series
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (List.map event spans @ counter_events));
    ]

let write_chrome_trace ~path =
  (* Counter-event timestamps must be wall-clock microseconds, so only
     series whose x axis is seconds-since-origin can go in the trace:
     that is the sampler's family.  (solver.residual_trajectory's x is
     an iteration count and would land at nonsense timestamps.) *)
  let series =
    List.filter
      (fun (name, _) ->
        String.length name >= 8 && String.sub name 0 8 = "sampler.")
      (Metrics.snapshot ()).Metrics.series_data
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string ~pretty:true (chrome_trace ~series (Span.completed_spans ())));
      output_char oc '\n')

(* ---------------------------------------------------------------- *)
(* Metrics dump                                                      *)
(* ---------------------------------------------------------------- *)

let metrics_json (m : Metrics.snapshot) =
  let histogram (h : Metrics.histogram_stats) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int h.count));
        ("sum", Json.Num h.sum);
        ("min", Json.Num h.min);
        ("max", Json.Num h.max);
        ("mean", Json.Num h.mean);
      ]
  in
  let point (x, y) = Json.Arr [ Json.Num x; Json.Num y ] in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) m.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) m.gauges));
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, histogram h)) m.histograms));
      ( "series",
        Json.Obj (List.map (fun (k, pts) -> (k, Json.Arr (List.map point pts))) m.series_data)
      );
    ]

(* ---------------------------------------------------------------- *)
(* Prometheus exposition text format                                  *)
(* ---------------------------------------------------------------- *)

(* Metric names here use dots ("statespace.frontier_states"); Prometheus
   names must match [a-zA-Z_:][a-zA-Z0-9_:]*, so anything else maps to
   '_'.  Everything is prefixed with the tool namespace. *)
let prom_name ?(namespace = "choreographer") name =
  let b = Buffer.create (String.length name + String.length namespace + 1) in
  Buffer.add_string b namespace;
  Buffer.add_char b '_';
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' when i > 0 -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let prometheus ?namespace (m : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  let line name v = Buffer.add_string b (Printf.sprintf "%s %s\n" name (prom_float v)) in
  let typ name kind = Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind) in
  List.iter
    (fun (k, v) ->
      let name = prom_name ?namespace (k ^ "_total") in
      typ name "counter";
      line name (float_of_int v))
    m.Metrics.counters;
  List.iter
    (fun (k, v) ->
      let name = prom_name ?namespace k in
      typ name "gauge";
      line name v)
    m.Metrics.gauges;
  (* Histograms carry no buckets, so they export as Prometheus
     summaries: _count and _sum are the standard pair, min/max/mean
     ride along as gauges. *)
  List.iter
    (fun (k, (h : Metrics.histogram_stats)) ->
      let name = prom_name ?namespace k in
      typ name "summary";
      line (name ^ "_count") (float_of_int h.count);
      line (name ^ "_sum") h.sum;
      List.iter
        (fun (suffix, v) ->
          let g = name ^ suffix in
          typ g "gauge";
          line g v)
        [ ("_min", h.min); ("_max", h.max); ("_mean", h.mean) ])
    m.Metrics.histograms;
  (* A scrape sees the instantaneous value, so a series exports as a
     gauge holding its most recent point. *)
  List.iter
    (fun (k, pts) ->
      match List.rev pts with
      | [] -> ()
      | (_, y) :: _ ->
          let name = prom_name ?namespace k in
          typ name "gauge";
          line name y)
    m.Metrics.series_data;
  Buffer.contents b

type metrics_format = Json_format | Prometheus_format

let metrics_format_of_string = function
  | "json" -> Some Json_format
  | "prom" | "prometheus" -> Some Prometheus_format
  | _ -> None

let write_metrics ?(format = Json_format) ~path () =
  let m = Metrics.snapshot () in
  Out_channel.with_open_bin path (fun oc ->
      match format with
      | Json_format ->
          output_string oc (Json.to_string ~pretty:true (metrics_json m));
          output_char oc '\n'
      | Prometheus_format -> output_string oc (prometheus m))

(* ---------------------------------------------------------------- *)
(* Text tree (run report, tests)                                     *)
(* ---------------------------------------------------------------- *)

let render_tree spans =
  (* Children precede their parents in completion order; rebuild the
     forest keyed on parent ids, children in start order. *)
  let children : (int, Span.completed list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Span.completed) ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt children c.parent) in
      Hashtbl.replace children c.parent (c :: siblings))
    spans;
  let sorted parent =
    List.sort
      (fun (a : Span.completed) b -> compare a.start_s b.start_s)
      (Option.value ~default:[] (Hashtbl.find_opt children parent))
  in
  let buf = Buffer.create 512 in
  let rec walk depth (c : Span.completed) =
    Buffer.add_string buf
      (Printf.sprintf "%s%-32s %8.3f ms  %s\n"
         (String.make (2 * depth) ' ')
         c.name (1e3 *. c.duration_s) (attrs_text c.attrs));
    List.iter (walk (depth + 1)) (sorted c.id)
  in
  List.iter (walk 0) (sorted (-1));
  Buffer.contents buf
