(* Coverage of smaller API surfaces not exercised elsewhere. *)

module X = Xml_kit.Minixml

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_model_print_round_trip () =
  List.iter
    (fun src ->
      let m = Pepa.Parser.model_of_string src in
      let printed = Pepa.Printer.model_to_string m in
      let m2 = Pepa.Parser.model_of_string printed in
      Alcotest.(check bool) src true (Pepa.Syntax.equal_model m m2))
    [
      Scenarios.File_protocol.pepa_source;
      "r = 1.0 + 2.0 * 3.0; P = (a, r).P; system P;";
      "P = (a, 1).P; Q = (b, infty[2]).Q; System = (P <a> Q) / {b}; system System[2];";
    ]

let test_syntax_helpers () =
  let m = Pepa.Parser.model_of_string "r = 1.0; P = (a, r).Q; Q = (b, 2.0).P; system P <a> Q;" in
  let names = Pepa.Syntax.defined_names m in
  Alcotest.(check bool) "defined names" true
    (Pepa.Syntax.String_set.equal names (Pepa.Syntax.String_set.of_list [ "r"; "P"; "Q" ]));
  let e = Pepa.Parser.expr_of_string "(a, r + s).P + (b, 1).Q" in
  Alcotest.(check bool) "rate_vars" true
    (Pepa.Syntax.String_set.equal
       (Pepa.Syntax.rate_vars (Pepa.Syntax.Radd (Pepa.Syntax.Rvar "r", Pepa.Syntax.Rvar "s")))
       (Pepa.Syntax.String_set.of_list [ "r"; "s" ]));
  Alcotest.(check bool) "free_vars" true
    (Pepa.Syntax.String_set.equal (Pepa.Syntax.free_vars e)
       (Pepa.Syntax.String_set.of_list [ "P"; "Q" ]));
  Alcotest.(check int) "actions" 2 (Pepa.Action.Set.cardinal (Pepa.Syntax.actions e));
  Alcotest.(check bool) "sequential shape" true (Pepa.Syntax.is_sequential_shape e);
  Alcotest.(check bool) "coop is not sequential" false
    (Pepa.Syntax.is_sequential_shape (Pepa.Parser.expr_of_string "P <a> Q"))

let test_env_accessors () =
  let env =
    Pepa.Env.of_model
      (Pepa.Parser.model_of_string
         "r = 2.0; s = r * 2; P = (a, s).Q; Q = (b, 1.0).P; system P;")
  in
  Alcotest.(check (list (pair string (float 1e-12)))) "rate parameters"
    [ ("r", 2.0); ("s", 4.0) ]
    (Pepa.Env.rate_parameters env);
  Alcotest.(check (list string)) "process names" [ "P"; "Q" ] (Pepa.Env.process_names env);
  Alcotest.(check bool) "sequential classification" true (Pepa.Env.is_sequential env "P");
  let alphabet = Pepa.Env.alphabet env (Pepa.Syntax.Var "P") in
  Alcotest.(check bool) "alphabet chases constants" true
    (Pepa.Syntax.String_set.equal alphabet (Pepa.Syntax.String_set.of_list [ "a"; "b" ]))

let test_pp_summaries () =
  let space = Pepa.Statespace.of_string "P = (a, 1.0).(b, 1.0).P;" in
  let text = Format.asprintf "%a" Pepa.Statespace.pp_summary space in
  Alcotest.(check bool) "statespace summary" true (contains "2 states" text);
  let chain = Pepa.Statespace.ctmc space in
  let stats = Format.asprintf "%a" Markov.Ctmc.pp_stats chain in
  Alcotest.(check bool) "ctmc stats" true (contains "2 states" stats);
  let nspace = Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source in
  let ntext = Format.asprintf "%a" Pepanet.Net_statespace.pp_summary nspace in
  Alcotest.(check bool) "net summary" true (contains "8 markings" ntext)

let test_xml_escapes_and_fragments () =
  Alcotest.(check string) "escape_text" "a&amp;b&lt;c&gt;" (X.escape_text "a&b<c>");
  Alcotest.(check string) "escape_attribute keeps quotes escaped" "&quot;x&quot;"
    (X.escape_attribute "\"x\"");
  let fragments = X.parse_fragments "<a/><b><c/></b>" in
  Alcotest.(check (list string)) "fragment names" [ "a"; "b" ] (List.map X.name fragments);
  Alcotest.(check string) "text_content walks" "xy"
    (X.text_content (X.parse_string "<a>x<b>y</b></a>"))

let test_xpath_deep_path () =
  let doc = X.parse_string "<r><a><b><c i=\"1\"/></b></a><b><c i=\"2\"/></b></r>" in
  Alcotest.(check int) "// with trailing steps" 2
    (List.length (Xml_kit.Xpath_lite.select "//b/c" doc));
  Alcotest.(check int) "rooted path" 1 (List.length (Xml_kit.Xpath_lite.select "a/b/c" doc))

let test_rates_bindings () =
  let book = Uml.Rates_file.of_string "x = 1\ny = 2\n" in
  Alcotest.(check (list (pair string (float 0.0)))) "bindings in order"
    [ ("x", 1.0); ("y", 2.0) ]
    (Uml.Rates_file.bindings book)

let test_interaction_participants_dedup () =
  let i =
    Uml.Interaction.make ~name:"I"
      ~messages:[ ("a", "b", "m1"); ("b", "a", "m2"); ("a", "c", "m3") ]
  in
  Alcotest.(check (list string)) "dedup keeps order" [ "a"; "b"; "c" ]
    (Uml.Interaction.participants i)

let test_diagram_text_statechart_errors () =
  let reject src =
    match Uml.Diagram_text.parse src with
    | exception Uml.Diagram_text.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" src
  in
  reject "statechart C { initial Nowhere; state S; S -> S : go; }";
  reject "statechart C { }";
  reject "statechart C { state S; S -> S ; }"

let test_net_marking_label_statics () =
  let space = Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source in
  (* marking labels include static component states after the bar *)
  let with_static =
    List.filter
      (fun i -> contains "|" (Pepanet.Net_statespace.marking_label space i))
      (List.init (Pepanet.Net_statespace.n_markings space) Fun.id)
  in
  Alcotest.(check int) "all labels show the static" (Pepanet.Net_statespace.n_markings space)
    (List.length with_static)

let suite =
  [
    Alcotest.test_case "model print round trip" `Quick test_model_print_round_trip;
    Alcotest.test_case "syntax helpers" `Quick test_syntax_helpers;
    Alcotest.test_case "env accessors" `Quick test_env_accessors;
    Alcotest.test_case "summaries" `Quick test_pp_summaries;
    Alcotest.test_case "xml escapes and fragments" `Quick test_xml_escapes_and_fragments;
    Alcotest.test_case "xpath deep paths" `Quick test_xpath_deep_path;
    Alcotest.test_case "rates bindings" `Quick test_rates_bindings;
    Alcotest.test_case "interaction participants" `Quick test_interaction_participants_dedup;
    Alcotest.test_case "text statechart errors" `Quick test_diagram_text_statechart_errors;
    Alcotest.test_case "marking labels show statics" `Quick test_net_marking_label_statics;
  ]
