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

let suite =
  [
    Alcotest.test_case "tandem 3x9 solver bit patterns" `Quick test_tandem;
    Alcotest.test_case "roaming scenario solver bit patterns" `Quick test_roaming;
  ]
