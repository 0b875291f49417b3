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

let pepa_statespace space =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph derivation_graph {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  for i = 0 to Pepa.Statespace.n_states space - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  s%d [label=\"%s\"%s];\n" i
         (escape (Pepa.Statespace.state_label space i))
         (if i = Pepa.Statespace.initial_index space then ", peripheries=2" else ""))
  done;
  Pepa.Statespace.iter_transitions space (fun ~src ~action ~rate ~dst ->
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%s/%.3g\"];\n" src dst
           (escape (Pepa.Action.to_string action))
           rate));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let net_statespace space =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph marking_graph {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  for i = 0 to Pepanet.Net_statespace.n_markings space - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  m%d [label=\"%s\"%s];\n" i
         (escape (Pepanet.Net_statespace.marking_label space i))
         (if i = Pepanet.Net_statespace.initial_index space then ", peripheries=2" else ""))
  done;
  Pepanet.Net_statespace.iter_transitions space (fun ~src ~label ~rate ~dst ->
      let label, style =
        match label with
        | Pepanet.Net_semantics.Local action -> (Pepa.Action.to_string action, "")
        | Pepanet.Net_semantics.Fire { action; transition } ->
            (Printf.sprintf "%s!%s" action transition, ", style=bold")
      in
      Buffer.add_string buf
        (Printf.sprintf "  m%d -> m%d [label=\"%s/%.3g\"%s];\n" src dst (escape label) rate
           style));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

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
