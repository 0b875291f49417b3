(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--daemon-exe PATH]
     perfbench --write-refs

   NAME is tandem_exact, uml_design_loop, daemon_mixed, or all.  Run
   from the root of the checkout (run.py builds and calls this).  With
   --trace 0 a run reports the end-to-end metrics; with --trace 1 it
   replays each op stage by stage with telemetry on and reports the
   per-layer metrics instead.  Every op is checked against the
   references under perfbench/refs; a mismatch is a failed op.  The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Common

let workloads = [ "tandem_exact"; "uml_design_loop"; "daemon_mixed" ]

(* The metric names and units come from BENCHMARK.json, so the program
   and the file that gates it cannot drift apart. *)
let spec_metrics key =
  let spec = Obs.Json.of_string (read_file "BENCHMARK.json") in
  Obs.Json.member key spec
  |> Option.map Obs.Json.to_list
  |> Option.value ~default:[]
  |> List.map (fun m ->
         let field k =
           match Obs.Json.member k m with
           | Some (Obs.Json.Str v) -> v
           | _ -> failwith ("BENCHMARK.json: metric without " ^ k)
         in
         (field "name", field "unit"))

(* A run reports exactly the listed metrics, in the listed order, each
   with its listed unit.  A traced run reports every per-layer metric;
   one its workload does not measure reads 0. *)
let conform ~fill listed (o : outcome) =
  List.iter
    (fun x ->
      if List.assoc_opt x.name listed <> Some x.unit_ then
        failwith (Printf.sprintf "metric %s (%s) is not listed in BENCHMARK.json" x.name x.unit_))
    o.metrics;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.name = name) o.metrics with
        | Some x -> x
        | None when fill -> m name unit_ 0.0
        | None -> failwith ("missing metric " ^ name))
      listed
  in
  { o with metrics }

let run_workload ~exe ~seed ~seconds ~trace name =
  let o =
    match (name, trace) with
    | "tandem_exact", false -> Tandem_exact.run ~seconds
    | "tandem_exact", true -> Tandem_exact.trace ~seconds
    | "uml_design_loop", false -> Uml_design_loop.run ~seed ~seconds
    | "uml_design_loop", true -> Uml_design_loop.trace ~seed ~seconds
    | "daemon_mixed", false -> Daemon_mixed.run ~exe ~seed ~seconds
    | "daemon_mixed", true -> Daemon_mixed.trace ~exe ~seed ~seconds
    | _ -> raise (Arg.Bad ("unknown workload " ^ name))
  in
  if trace then conform ~fill:true (spec_metrics "per_layer") o
  else conform ~fill:false (spec_metrics "end_to_end") o

let report ~seed ~seconds ~trace ~exe name (o : outcome) =
  Printf.printf "== %s (seed %d, %g s, %s)\n" name seed seconds
    (if trace then "traced: per-layer metrics" else "end-to-end metrics");
  Printf.printf
    "host: nproc=%d ocaml=%s jobs=1 daemon_workers=%d daemon_cache=%d daemon_exe=%s\n" (nproc ())
    Sys.ocaml_version Daemon_mixed.workers Daemon_mixed.cache exe;
  List.iter (fun x -> Printf.printf "  %-36s %16.6f %s\n" x.name x.value x.unit_) o.metrics;
  Printf.printf "  %-36s %16.6f (%d failed / %d attempted)\n" "error_ratio"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  List.iter (fun line -> Printf.printf "  # %s\n" line) o.notes;
  if not o.checks_ok then Printf.printf "  # WORKLOAD CHECK FAILED\n"

let json_line ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Num (float_of_int attempted));
         ("failed", Num (float_of_int failed));
         ( "metrics",
           Obj
             (List.map
                (fun (name, x) ->
                  if not (Float.is_finite x.value) then
                    failwith (Printf.sprintf "metric %s is not finite" name);
                  (name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]))
                metrics) );
       ])

let write_refs () =
  Par.set_jobs 1;
  Tandem_exact.write_reference ();
  Uml_design_loop.write_reference ();
  Daemon_mixed.write_reference ();
  print_endline "references written"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/choreographerd_main.exe" and refs = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tandem_exact|uml_design_loop|daemon_mixed|all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon-exe", Arg.Set_string exe, "PATH choreographerd executable");
      ("--write-refs", Arg.Set refs, " regenerate the reference outputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !refs then write_refs ()
  else begin
    let names =
      match !workload with
      | "all" -> workloads
      | w when List.mem w workloads -> [ w ]
      | w ->
          Printf.eprintf "perfbench: unknown workload %S (expected %s or all)\n" w
            (String.concat ", " workloads);
          exit 2
    in
    Par.set_jobs 1;
    Obs.Config.disable ();
    (* A daemon that goes away mid-request is a failed op, not a kill. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let trace = !trace = 1 and seed = !seed and seconds = !seconds and exe = !exe in
    let results =
      List.map
        (fun name ->
          let o = run_workload ~exe ~seed ~seconds ~trace name in
          report ~seed ~seconds ~trace ~exe name o;
          (name, o))
        names
    in
    (try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
    let correct = List.for_all (fun (_, o) -> o.failed = 0 && o.checks_ok) results in
    let attempted = List.fold_left (fun acc (_, o) -> acc + o.attempted) 0 results in
    let failed = List.fold_left (fun acc (_, o) -> acc + o.failed) 0 results in
    let metrics =
      match results with
      | [ (_, o) ] -> List.map (fun x -> (x.name, x)) o.metrics
      | _ -> List.concat_map (fun (w, o) -> List.map (fun x -> (w ^ "." ^ x.name, x)) o.metrics) results
    in
    print_endline (json_line ~correct ~attempted ~failed metrics)
  end
