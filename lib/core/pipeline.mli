(** The end-to-end Choreographer pipeline of the paper's Figure 4:

    {v
    Poseidon project --(preprocessor)--> metamodel-conformant XMI
      --(MDR import/export)--> validated model
      --(Extractor)--> .pepanet model + rates
      --(Workbench)--> .xmltable results
      --(Reflector)--> reflected XMI
      --(postprocessor)--> reflected Poseidon project with original layout
    v} *)

type options = {
  rates : Uml.Rates_file.t;
  restart : [ `Cycle | `Absorb ];
  method_ : Markov.Steady.method_ option;
  max_states : int option;
  aggregate : Markov.Lump.mode;
      (** aggregation passes applied between state-space construction
          and the solve of every extracted model (default
          {!Markov.Lump.No_agg}); all reflected measures are exact under
          every mode *)
  fluid : Fluid.Rk45.tolerances option;
      (** when set, solve extracted PEPA models by the fluid-flow ODE
          approximation instead of a discrete solve; the reflected
          measures are labelled as approximations ({!Results.t}
          [approximation], {!Extract.Reflector.solution_method_tag}).
          Models with no fluid interpretation (passive cooperation) and
          PEPA nets fall back to the exact solve with a warning.
          Default [None]. *)
  jobs : int option;
      (** domain count for the iterative solvers (Jacobi, Power,
          BiCGStab) of every extracted model — the only parallel
          stage; exploration and assembly are always sequential.
          [Some 0] auto-detects, [None] (the default) leaves the
          process-wide [Par.jobs] setting in charge.  Results are
          deterministic and agree with a sequential run. *)
}

val default_options : options

type outcome = {
  reflected : Xml_kit.Minixml.t;  (** annotated document, layout restored *)
  results : Results.t list;       (** one per analysed diagram/chart set *)
  extracted_nets : (string * Pepanet.Net.t) list;
      (** the intermediate [.pepanet] artefacts, per activity diagram *)
  extracted_models : (string * Pepa.Syntax.model) list;
      (** the intermediate PEPA model for the state-diagram set, if any *)
}

exception Pipeline_error of string

val process_document : ?options:options -> Xml_kit.Minixml.t -> outcome
(** Run the full pipeline on one document (a Poseidon project or plain
    XMI).  Every activity graph is extracted to a PEPA net and analysed;
    the set of state machines (if any) is extracted to one cooperating
    PEPA model and analysed.  All results are reflected into the
    returned document. *)

val process_file :
  ?options:options -> ?rates_path:string -> input:string -> output:string -> unit -> outcome
(** File-level wrapper: reads [input], loads rates from [rates_path]
    when given (overriding [options.rates]), writes the reflected
    document to [output]. *)
