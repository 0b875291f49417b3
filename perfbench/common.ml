(* Shared plumbing of the benchmark: clock, order statistics, memory,
   reference tables and the result record every workload returns. *)

let now = Obs.Clock.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Host facts                                                          *)
(* ------------------------------------------------------------------ *)

let nproc () = Domain.recommended_domain_count ()

(* Peak resident set ([VmHWM]) of a process, in MiB; [pid = None] reads
   this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Files and references                                                *)
(* ------------------------------------------------------------------ *)

(* Every path is relative to the checkout root the benchmark runs
   from. *)
let bench_dir = "perfbench"
let refs_dir = Filename.concat bench_dir "refs"
let inputs_dir = Filename.concat bench_dir "inputs"
let run_dir = ".perfbench_run"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let input path = read_file (Filename.concat inputs_dir path)
let digest s = Digest.to_hex (Digest.string s)

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

(* A reference table: one [key TAB md5] line per distinct input. *)
let load_table name =
  let tbl = Hashtbl.create 256 in
  String.split_on_char '\n' (read_file (Filename.concat refs_dir name))
  |> List.iter (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ());
  tbl

let save_table name rows =
  let rows = List.sort_uniq compare rows in
  write_file (Filename.concat refs_dir name)
    (String.concat "" (List.map (fun (k, d) -> k ^ "\t" ^ d ^ "\n") rows))

(* A missing reference is a failure, never a pass. *)
let matches tbl key output =
  match Hashtbl.find_opt tbl key with Some d -> d = digest output | None -> false

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (** workload-level checks beyond the per-op ones *)
  metrics : metric list;
  notes : string list;  (** extra human-readable lines (sample counts, ...) *)
}

let m name unit_ value = { name; value; unit_ }

(* Distinct from every other stream a run draws from. *)
let rng ~seed salt = Random.State.make [| seed; salt |]

(* A shuffled deck: deals every item once, in an order the generator
   picks, then reshuffles.  Dealing instead of drawing independently
   fixes the mix of a run, so runs on different seeds differ in order
   rather than in composition. *)
module Deck = struct
  type 'a t = { items : 'a array; mutable pos : int; rng : Random.State.t }

  let create rng items = { items = Array.of_list items; pos = 0; rng }

  let deal d =
    let n = Array.length d.items in
    if d.pos = 0 then
      for i = n - 1 downto 1 do
        let j = Random.State.int d.rng (i + 1) in
        let x = d.items.(i) in
        d.items.(i) <- d.items.(j);
        d.items.(j) <- x
      done;
    let x = d.items.(d.pos) in
    d.pos <- (d.pos + 1) mod n;
    x
end

(* Throughput robust to short stalls of a shared host: the timed phase
   is cut into [windows] equal windows and the result is the median,
   over the windows, of the ops completed per second.  [ends] are
   completion times relative to the start of the timed phase. *)
let windowed_rate ?(windows = 10) ~seconds ends =
  let window = seconds /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun t ->
      let w = int_of_float (t /. window) in
      if w >= 0 && w < windows then counts.(w) <- counts.(w) + 1)
    ends;
  median (Array.to_list (Array.map (fun c -> float_of_int c /. window) counts))

(* A stage timer for traced replays: accumulates wall seconds per stage
   name across calls. *)
module Stages = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let run (t : t) name f =
    let v, dt = time f in
    Hashtbl.replace t name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt t name));
    v

  let get (t : t) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)
  let total (t : t) = Hashtbl.fold (fun _ v acc -> acc +. v) t 0.0
end
