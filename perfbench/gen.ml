(* Workload generator: one seed in, one run's inputs out.

   Every input of a run -- the daggen .ptg corpus and the order and EA
   seeds of schedule requests -- is a function of (workload, seed,
   seconds).  Request counts scale with the run length through fixed
   per-workload rates, never with the speed of the machine, so a run's
   ok_frac and makespan_vs_lb repeat exactly for a given seed. *)

(* An online session: what the traced run's probe session submits. *)
type session = {
  seed : int;  (** the session's re-planning seed *)
  dags : (int * float) array;  (** (corpus index, virtual arrival time) *)
}

type t = {
  name : string;
  platform : string;
  model : string;
  algorithm : string;
  fleet : bool;  (** served by emts-router over two backends *)
  corpus : string array;  (** .ptg texts; requests index into it *)
  warmup : (int * int) array;  (** (instance, EA seed), before the window *)
  requests : (int * int) array;  (** (instance, EA seed), the timed window *)
  probe : string;  (** an 8-task DAG for layer probes *)
}

let names = [ "ea-bound"; "seed-bound"; "fleet-repeat" ]
let platform = "grelon"

(* Requests per second of run length, calibrated on a
   2-core x86-64 VM so that a run's window lasts about [--seconds]. *)
let ea_rate = 6.5
let seed_rate = 2.8
let fleet_instances_rate = 2.9
let fleet_repeats = 8

let dag rng n =
  let params =
    {
      Emts_daggen.Random_dag.n;
      width = 0.5;
      regularity = 0.5;
      density = 0.5;
      jump = 1;
    }
  in
  Emts_daggen.Random_dag.generate rng params
  |> Emts_daggen.Costs.assign rng
  |> Emts_ptg.Serial.to_string

(* Evenly spaced sizes in [lo, hi], shuffled: every run sees the same
   size mix, so a run's latency quantiles depend on the seed only
   through graph shape and costs. *)
let ladder rng ~lo ~hi count =
  let sizes =
    Array.init count (fun i ->
        if count = 1 then (lo + hi) / 2 else lo + ((hi - lo) * i / (count - 1)))
  in
  Emts_prng.shuffle rng sizes;
  sizes

let seed_of rng = Emts_prng.int rng 0x3FFF_FFFF

let count rate seconds = max 1 (int_of_float (Float.round (rate *. seconds)))

(* Arrival gaps shorter than a DAG's planned span, so every arrival
   lands on running work: the span is at least the critical path at
   each task's fastest allotment, and the gap is 30% of that. *)
let arrivals ~model dags =
  let platform = Option.get (Emts_platform.find_preset platform) in
  let model = Option.get (Emts_model.find_preset model) in
  let at = ref 0. in
  Array.map
    (fun ptg ->
      let graph = Result.get_ok (Emts_ptg.Serial.of_string ptg) in
      let ctx = Emts_alloc.Common.make_ctx ~model ~platform ~graph in
      let this = !at in
      at := this +. (0.3 *. Emts_alloc.Bounds.critical_path_bound ctx);
      this)
    dags

let make ~name ~seed ~seconds =
  if not (seconds > 0.) then invalid_arg "Gen.make: seconds must be > 0";
  let rng =
    Emts_prng.create
      ~seed:(Emts_prng.seed_of_label (Printf.sprintf "perfbench/%s/%d" name seed))
      ()
  in
  let corpus = ref [] and size = ref 0 in
  let add ptg =
    corpus := ptg :: !corpus;
    incr size;
    !size - 1
  in
  let probe = dag rng 8 in
  let fresh_requests ~lo ~hi n =
    Array.map (fun n -> (add (dag rng n), seed_of rng)) (ladder rng ~lo ~hi n)
  in
  let base model algorithm =
    {
      name;
      platform;
      model;
      algorithm;
      fleet = false;
      corpus = [||];
      warmup = [||];
      requests = [||];
      probe;
    }
  in
  let wl =
    match name with
    | "ea-bound" ->
      (* Fresh (graph, seed) pairs: the cross-request fitness cache is
         written, never read. *)
      let warmup = fresh_requests ~lo:50 ~hi:100 2 in
      let requests = fresh_requests ~lo:50 ~hi:100 (count ea_rate seconds) in
      { (base "synthetic" "emts10") with warmup; requests }
    | "seed-bound" ->
      (* Monotone Model 1 at n=200..300: the CPA growth loops run out to
         wide allocations and dominate a two-generation EMTS1. *)
      let warmup = fresh_requests ~lo:200 ~hi:300 1 in
      let requests = fresh_requests ~lo:200 ~hi:300 (count seed_rate seconds) in
      { (base "amdahl" "emts1") with warmup; requests }
    | "fleet-repeat" ->
      (* A fixed set of n=100 instances, each resubmitted with its own
         seed in a shuffled order: first submissions are the slow
         1/[fleet_repeats] of the requests, repeats read a warm cache. *)
      let warmup = fresh_requests ~lo:100 ~hi:100 2 in
      let instances = fresh_requests ~lo:100 ~hi:100 (count fleet_instances_rate seconds) in
      let requests =
        Array.concat (List.init fleet_repeats (fun _ -> instances))
      in
      Emts_prng.shuffle rng requests;
      { (base "synthetic" "emts10") with fleet = true; warmup; requests }
    | _ -> invalid_arg (Printf.sprintf "Gen.make: unknown workload %S" name)
  in
  { wl with corpus = Array.of_list (List.rev !corpus) }

(* The run's inputs as files: what [bench.exe --emit DIR] writes and
   what the determinism test compares byte for byte. *)
let files wl =
  let requests =
    let b = Buffer.create 4096 in
    let emit phase =
      Array.iter (fun (i, s) -> Printf.bprintf b "%s\t%d\t%d\n" phase i s)
    in
    emit "warmup" wl.warmup;
    emit "window" wl.requests;
    Buffer.contents b
  in
  (("probe.ptg", wl.probe)
   :: Array.to_list
        (Array.mapi (fun i p -> (Printf.sprintf "corpus/%04d.ptg" i, p)) wl.corpus))
  @ [ ("requests.tsv", requests) ]
