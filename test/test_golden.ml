(* Golden bit patterns for the steady-state solver kernels.  For each
   (model, method) pair the MD5 of the IEEE-754 bit image of pi and the
   iteration count are pinned, so a kernel rewrite must reproduce every
   iterate bit for bit, not merely land close to the old answer.  The
   digests were recorded before the CSR row loops replaced the
   closure-based row iterators. *)

module St = Markov.Steady

let bit_digest pi =
  let b = Buffer.create (8 * Array.length pi) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) pi;
  Digest.to_hex (Digest.string (Buffer.contents b))

let methods =
  [
    ("bicgstab", Some St.Bicgstab);
    ("gauss-seidel", Some St.Gauss_seidel);
    ("sor:1.2", Some (St.Sor 1.2));
    ("jacobi", Some St.Jacobi);
    ("auto", None);
  ]

(* (method, jobs, digest of pi, iterations, method that answered). *)
type golden = string * int * string * int * string

let tandem_golden : golden list =
  [
    ("bicgstab", 1, "3f6cc4460171c7868afe80bce2af5fae", 48, "bicgstab");
    ("gauss-seidel", 1, "f2b09bf09743ba606828ff5f33d24740", 264, "gauss-seidel");
    ("sor:1.2", 1, "ee632a76394ca63529f5934444de6b43", 80, "sor");
    ("jacobi", 1, "670dc18b6e8767305a069ad940758f50", 1976, "jacobi");
    ("auto", 1, "f2b09bf09743ba606828ff5f33d24740", 264, "gauss-seidel");
  ]

(* 5641 states: above the solvers' pool threshold, so the jobs=2 rows
   run the pooled Jacobi rows and BiCGStab reductions.  Pooled Jacobi
   renormalises with a chunked sum, hence its own digest. *)
let roaming_golden : golden list =
  [
    ("bicgstab", 1, "c615c8abb18fc81ce2181c1ac698f948", 10, "bicgstab");
    ("gauss-seidel", 1, "e64d1efa57f03f393366aca48e9de3c5", 24, "gauss-seidel");
    ("sor:1.2", 1, "12414981e206d91ed62353746ccb9f3c", 56, "sor");
    ("jacobi", 1, "226c93a25d40ebd458ba229fbab6dac9", 120, "jacobi");
    ("auto", 1, "e64d1efa57f03f393366aca48e9de3c5", 24, "gauss-seidel");
    ("bicgstab", 2, "c615c8abb18fc81ce2181c1ac698f948", 10, "bicgstab");
    ("jacobi", 2, "5f2f5209849fda8beabebefb48773df5", 120, "jacobi");
  ]

let check_golden model chain goldens =
  List.iter
    (fun (name, jobs, digest, iterations, answered) ->
      let label = Printf.sprintf "%s, %s, jobs=%d" model name jobs in
      let pi, stats = St.solve_stats ?method_:(List.assoc name methods) ~jobs chain in
      Alcotest.(check string) (label ^ ": pi bits") digest (bit_digest pi);
      Alcotest.(check int) (label ^ ": iterations") iterations stats.St.iterations;
      Alcotest.(check string) (label ^ ": method") answered (St.method_name stats.St.method_used))
    goldens

let test_tandem () =
  check_golden "tandem 3x9"
    (Pepa.Statespace.ctmc
       (Pepa.Statespace.of_string (Scenarios.Tandem.source ~stations:3 ~capacity:9)))
    tandem_golden

let test_roaming () =
  check_golden "roaming, 9 users"
    (Pepa.Statespace.ctmc (Pepa.Statespace.of_string (Scenarios.Roaming.pepa_source ~replicas:9)))
    roaming_golden

(* Golden fingerprints of the explored labelled transition systems.
   For each input the state and transition counts, the MD5 of the
   (src, label, rate bits, dst) stream in iteration order, the MD5 of
   every state or marking label and the lump class count are pinned, so
   a rewrite of the explorer or of the transition store must rebuild
   the same LTS in the same order, bit for bit.  Exploration is capped
   at 50,000 states; an input over the cap pins the cap exception.  The
   fingerprints were recorded while the PEPA and PEPA-net builders
   still had separate explorers. *)

let lts_cap = 50_000

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let add_transition b ~src ~label ~rate ~dst =
  add_int b src;
  Buffer.add_string b label;
  Buffer.add_char b '\000';
  Buffer.add_int64_le b (Int64.bits_of_float rate);
  add_int b dst

let fingerprint ~n ~m ~iter ~label ~classes =
  let stream = Buffer.create 4096 in
  iter (add_transition stream);
  let labels = Buffer.create 4096 in
  for i = 0 to n - 1 do
    Buffer.add_string labels (label i);
    Buffer.add_char labels '\n'
  done;
  ( Printf.sprintf "%d states, %d transitions, %d classes" n m classes,
    Digest.to_hex (Digest.string (Buffer.contents stream)),
    Digest.to_hex (Digest.string (Buffer.contents labels)) )

let pepa_fingerprint ~symmetry src =
  let module S = Pepa.Statespace in
  match S.build ~max_states:lts_cap ~symmetry (Pepa.Compile.of_string src) with
  | exception S.Too_many_states cap -> (Printf.sprintf "Too_many_states %d" cap, "", "")
  | sp ->
      fingerprint ~n:(S.n_states sp) ~m:(S.n_transitions sp)
        ~iter:(fun f ->
          S.iter_transitions sp (fun ~src ~action ~rate ~dst ->
              f ~src ~label:(Pepa.Action.to_string action) ~rate ~dst))
        ~label:(S.state_label sp)
        ~classes:(S.lump_partition sp).Markov.Lump.n_classes

let net_label = function
  | Pepanet.Net_semantics.Local action -> Pepa.Action.to_string action
  | Pepanet.Net_semantics.Fire { action; transition } -> action ^ "!" ^ transition

let net_fingerprint ~symmetry src =
  let module N = Pepanet.Net_statespace in
  match N.build ~max_markings:lts_cap ~symmetry (Pepanet.Net_compile.of_string src) with
  | exception N.Too_many_markings cap -> (Printf.sprintf "Too_many_markings %d" cap, "", "")
  | sp ->
      fingerprint ~n:(N.n_markings sp) ~m:(N.n_transitions sp)
        ~iter:(fun f ->
          N.iter_transitions sp (fun ~src ~label ~rate ~dst ->
              f ~src ~label:(net_label label) ~rate ~dst))
        ~label:(N.marking_label sp)
        ~classes:(N.lump_partition sp).Markov.Lump.n_classes

let read_asset name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples/assets" name; Filename.concat "examples/assets" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* (input, symmetry, counts, MD5 of the transition stream, MD5 of the
   state labels); an input over the cap pins the exception instead. *)
let lts_golden =
  [
    ( "mm1k.pepa",
      false,
      "4 states, 6 transitions, 4 classes",
      "d7d8add17f083217371c45562d734717",
      "a64295bdab700f389ed1aadb96e26430" );
    ( "mm1k.pepa",
      true,
      "4 states, 6 transitions, 4 classes",
      "d7d8add17f083217371c45562d734717",
      "a64295bdab700f389ed1aadb96e26430" );
    ("pool.pepa", false, "Too_many_states 50000", "", "");
    ( "pool.pepa",
      true,
      "85 states, 2210 transitions, 85 classes",
      "5eedf4f14aec916fe2999fd2915d8c5b",
      "87112df7c2ba3247d501a2bde868ded9" );
    ("roaming.pepa", false, "Too_many_states 50000", "", "");
    ( "roaming.pepa",
      true,
      "45 states, 2370 transitions, 45 classes",
      "54ea1545653f62e3cc170d24efb77231",
      "a91b97cd1e302782a94379e769e387e6" );
    ( "instant_message.pepanet",
      false,
      "8 states, 8 transitions, 8 classes",
      "110ed1cede859986d98b6da6cc685ba8",
      "384b2fb402a8c12e7b8282691e0e748a" );
    ( "instant_message.pepanet",
      true,
      "8 states, 8 transitions, 8 classes",
      "110ed1cede859986d98b6da6cc685ba8",
      "384b2fb402a8c12e7b8282691e0e748a" );
    ( "pda_expected.pepanet",
      false,
      "6 states, 7 transitions, 6 classes",
      "b4876a6ceaee76627c8adef90ed754bd",
      "fd14e61546932a72a4cb17447026545e" );
    ( "pda_expected.pepanet",
      true,
      "6 states, 7 transitions, 6 classes",
      "b4876a6ceaee76627c8adef90ed754bd",
      "fd14e61546932a72a4cb17447026545e" );
    ( "roaming.pepanet",
      false,
      "960 states, 3456 transitions, 288 classes",
      "11f12c24649261b519c46eb5a893047f",
      "9d41bc1bba18c1f6e761579bff6ac664" );
    ( "roaming.pepanet",
      true,
      "288 states, 1056 transitions, 288 classes",
      "d852cc093bf761c17af458cbd054f6e1",
      "d99b82155f3de99e118c137856164aec" );
    ( "tandem 3x9",
      false,
      "1000 states, 3420 transitions, 1000 classes",
      "75e281a7cc7e15fd47533876178442e3",
      "3f2b1ffc63540b3a2af4d05c18856c72" );
    ( "tandem 3x9",
      true,
      "1000 states, 3420 transitions, 1000 classes",
      "75e281a7cc7e15fd47533876178442e3",
      "3f2b1ffc63540b3a2af4d05c18856c72" );
    ( "roaming, 9 users",
      false,
      "5641 states, 68940 transitions, 15 classes",
      "1d72e92aa0aae8fd531e644d9a167220",
      "d6dc3b3919c53c1be1b5a01d21666b7b" );
    ( "roaming, 9 users",
      true,
      "15 states, 235 transitions, 15 classes",
      "7ce8bb43ddaa314139bf2cebf0cf1110",
      "8fa5f5e734764e68bc698f74abddea0d" );
  ]

let lts_fingerprint name ~symmetry =
  match name with
  | "tandem 3x9" -> pepa_fingerprint ~symmetry (Scenarios.Tandem.source ~stations:3 ~capacity:9)
  | "roaming, 9 users" -> pepa_fingerprint ~symmetry (Scenarios.Roaming.pepa_source ~replicas:9)
  | _ when Filename.check_suffix name ".pepanet" -> net_fingerprint ~symmetry (read_asset name)
  | _ -> pepa_fingerprint ~symmetry (read_asset name)

let test_lts () =
  List.iter
    (fun (name, symmetry, counts, stream, labels) ->
      let label = Printf.sprintf "%s, symmetry %b" name symmetry in
      let counts', stream', labels' = lts_fingerprint name ~symmetry in
      Alcotest.(check string) (label ^ ": counts") counts counts';
      Alcotest.(check string) (label ^ ": transition stream") stream stream';
      Alcotest.(check string) (label ^ ": state labels") labels labels')
    lts_golden

let suite =
  [
    Alcotest.test_case "tandem 3x9 solver bit patterns" `Quick test_tandem;
    Alcotest.test_case "roaming scenario solver bit patterns" `Quick test_roaming;
    Alcotest.test_case "explored LTS fingerprints" `Quick test_lts;
  ]
