let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One node per state, the initial state 0 double-circled, and one
   edge per transition labelled action/rate. *)
let derivation_graph ~graph ~prefix ~n ~state_label iter_edges =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" graph);
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %s%d [label=\"%s\"%s];\n" prefix i (escape (state_label i))
         (if i = 0 then ", peripheries=2" else ""))
  done;
  iter_edges (fun ~src ~dst ~label ~rate ~style ->
      Buffer.add_string buf
        (Printf.sprintf "  %s%d -> %s%d [label=\"%s/%.3g\"%s];\n" prefix src prefix dst
           (escape label) rate style));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pepa_statespace space =
  derivation_graph ~graph:"derivation_graph" ~prefix:"s" ~n:(Pepa.Statespace.n_states space)
    ~state_label:(Pepa.Statespace.state_label space) (fun edge ->
      Pepa.Statespace.iter_transitions space (fun ~src ~action ~rate ~dst ->
          edge ~src ~dst ~label:(Pepa.Action.to_string action) ~rate ~style:""))

let net_statespace space =
  derivation_graph ~graph:"marking_graph" ~prefix:"m"
    ~n:(Pepanet.Net_statespace.n_markings space)
    ~state_label:(Pepanet.Net_statespace.marking_label space) (fun edge ->
      Pepanet.Net_statespace.iter_transitions space (fun ~src ~label ~rate ~dst ->
          match label with
          | Pepanet.Net_semantics.Local action ->
              edge ~src ~dst ~label:(Pepa.Action.to_string action) ~rate ~style:""
          | Pepanet.Net_semantics.Fire { action; transition } ->
              edge ~src ~dst ~label:(Printf.sprintf "%s!%s" action transition) ~rate
                ~style:", style=bold"))

let net_structure (net : Pepanet.Net.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph pepa_net {\n";
  Buffer.add_string buf "  rankdir=LR;\n";
  List.iter
    (fun (p : Pepanet.Net.place) ->
      let cells = Pepanet.Net.cells_of_context p.Pepanet.Net.context in
      let statics = Pepanet.Net.statics_of_context p.Pepanet.Net.context in
      let cell_text =
        String.concat ", "
          (List.map
             (fun (c : Pepanet.Net.cell) ->
               Printf.sprintf "%s[%s]" c.Pepanet.Net.cell_type
                 (Option.value ~default:"_" c.Pepanet.Net.initial_token))
             cells)
      in
      let static_text = match statics with [] -> "" | s -> "\\n" ^ String.concat ", " s in
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=circle, label=\"%s\\n%s%s\"];\n" p.Pepanet.Net.place_name
           (escape p.Pepanet.Net.place_name) (escape cell_text) (escape static_text)))
    net.Pepanet.Net.places;
  List.iter
    (fun (t : Pepanet.Net.transition) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=box, style=filled, fillcolor=gray85, label=\"%s\\n(%s)\"];\n"
           t.Pepanet.Net.transition_name
           (escape t.Pepanet.Net.transition_name)
           (escape t.Pepanet.Net.firing_action));
      List.iter
        (fun input ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s;\n" input t.Pepanet.Net.transition_name))
        t.Pepanet.Net.inputs;
      List.iter
        (fun output ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s;\n" t.Pepanet.Net.transition_name output))
        t.Pepanet.Net.outputs)
    net.Pepanet.Net.transitions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
