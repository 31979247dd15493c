(* perfbench: the repository's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --workload NAME --seed N --seconds S --emit DIR

   Starts emts-serve (or emts-router over two emts-serve backends),
   drives the workload in a closed loop over one connection, checks
   every answer against an in-process reference, and prints each
   metric by name and unit.  The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   benchmark also replays the workload's requests through each layer's
   public function under its own spans and prints the per-layer ones.
   See README.md in this directory. *)

module P = Emts_serve.Protocol
module J = Emts_resilience.Json
module Gen = Perfbench.Gen
module Spec = Perfbench.Spec
module Engine = Emts_serve.Engine
module Online = Emts_serve.Online

let now = Emts_obs.Clock.now
let serve_exe = "_build/default/bin/emts_serve_cli.exe"
let router_exe = "_build/default/bin/emts_router_cli.exe"

(* setup_s is the median of 61 start-ups.  A start-up takes a few
   milliseconds and, on a shared VM, now and then a hundred times that.
   The machine's speed also drifts in phases of seconds to minutes:
   start-ups a second apart agree far better than start-ups a minute
   apart.  So one start-up serves the run and the others come in three
   groups of [setup_group] spread over it: before the references are
   computed, after them, and after the window.  A slow phase that covers
   less than half of the start-ups does not set the median. *)
let setup_group = 20

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_of l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, or the largest when there are fewer than
   eleven.  Returns the value and a note stating the percentile. *)
let tail l =
  let a = sorted_of l in
  let n = Array.length a in
  if n = 0 then (0., "no samples")
  else
    let i = if n < 11 then n - 1 else n - 11 in
    ( a.(i),
      Printf.sprintf "latency_tail_ms is p%.1f of %d answered requests (%d above it)"
        (100. *. float_of_int (i + 1) /. float_of_int n) n (n - 1 - i) )

let geomean = function
  | [] -> 0.
  | l -> exp (List.fold_left (fun s x -> s +. log x) 0. l /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0. l
let frac a b = if b > 0. then a /. b else 0.
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Serving processes *)

type topo = {
  pids : int list;  (** backends first, router last *)
  front : string;  (** the socket the workload connects to *)
  backends : string list;
  router : string option;
}

let start_topo ~dir ~fleet ~tag =
  let sock name = Filename.concat dir (Printf.sprintf "%s-%s.sock" tag name) in
  let log = Filename.concat dir "serve.log" in
  let t0 = now () in
  let backends = if fleet then [ sock "b0"; sock "b1" ] else [ sock "b0" ] in
  let bpids =
    List.map (fun s -> Wire.spawn ~log serve_exe [ "--socket"; s; "--workers"; "1" ]) backends
  in
  let router = if fleet then Some (sock "router") else None in
  let rpids =
    match router with
    | None -> []
    | Some r ->
      [
        Wire.spawn ~log router_exe
          ("--socket" :: r :: List.concat_map (fun b -> [ "--backend"; "unix:" ^ b ]) backends);
      ]
  in
  let topo =
    { pids = bpids @ rpids; front = Option.value router ~default:(List.hd backends); backends; router }
  in
  List.iter
    (fun s -> if not (Wire.wait_ready s) then failwith (s ^ ": never became ready"))
    (backends @ Option.to_list router);
  (topo, now () -. t0)

let stop_topo ?grace t = List.iter (Wire.stop ?grace) (List.rev t.pids)

(* Start the serving processes [n] times and stop them again.  They
   have served nothing, so they are killed without a drain. *)
let startups ~dir ~fleet ~tag n =
  List.init n (fun i ->
      let topo, s = start_topo ~dir ~fleet ~tag:(Printf.sprintf "%s%d" tag i) in
      stop_topo ~grace:0. topo;
      s)

(* ------------------------------------------------------------------ *)
(* Scrapes *)

type snap = {
  serve : J.t list;  (** stats of each backend *)
  bodies : string list;  (** OpenMetrics text of each backend *)
  router : J.t option;  (** the router's fan-out stats *)
  cpu : float;
}

let snapshot topo =
  {
    serve = List.map (fun b -> Wire.with_conn b Wire.stats) topo.backends;
    bodies = List.map (fun b -> Wire.with_conn b Wire.metrics_text) topo.backends;
    router = Option.map (fun r -> Wire.with_conn r Wire.stats) topo.router;
    cpu = sum (List.map Wire.cpu_s topo.pids);
  }

let delta name a b =
  sum (List.map (Wire.counter name) b.serve) -. sum (List.map (Wire.counter name) a.serve)

let router_delta name a b =
  match (a.router, b.router) with
  | Some x, Some y -> Wire.counter name y -. Wire.counter name x
  | _ -> 0.

(* Window p50 and tail (ms) of a daemon histogram, from the buckets
   filled between two scrapes, summed over backends.  A bucket is
   reported at its geometric midpoint (buckets are 4% wide). *)
let hist_ms metric a b =
  let add acc (le, n) =
    let prev = Option.value ~default:0 (List.assoc_opt le acc) in
    (le, prev + n) :: List.remove_assoc le acc
  in
  let per =
    List.fold_left2
      (fun acc before after ->
        List.fold_left add acc
          (Wire.window_buckets ~before:(Wire.buckets before metric) ~after:(Wire.buckets after metric)))
      [] a.bodies b.bodies
    |> List.sort compare
  in
  let total = List.fold_left (fun s (_, n) -> s + n) 0 per in
  let at rank =
    let rec walk seen = function
      | [] -> 0.
      | (le, n) :: rest -> if seen + n >= rank then le /. sqrt 1.04 *. 1000. else walk (seen + n) rest
    in
    walk 0 per
  in
  (* tail: ten samples beyond it, or the largest of fewer than eleven *)
  if total = 0 then (0., 0.) else (at ((total + 1) / 2), at (if total < 11 then total else total - 10))

(* ------------------------------------------------------------------ *)
(* Requests *)

let schedule_req (wl : Gen.t) ~id (inst, seed) =
  P.Request.Schedule
    {
      id = J.Num (float_of_int id);
      req =
        P.Request.schedule ~platform:wl.platform ~model:wl.model ~algorithm:wl.algorithm ~seed
          ~ptg:wl.corpus.(inst) ();
    }

let submit_req (wl : Gen.t) ~id ~session ~algorithm ~seed ~ptg ~at =
  P.Request.Submit
    {
      id = J.Num (float_of_int id);
      session;
      ptg;
      at;
      platform = wl.platform;
      model = wl.model;
      algorithm;
      seed;
      islands = 1;
      migration_interval = 5;
      migration_count = 1;
    }

(* One request, send to reply.  Encoding the request happens before
   the clock starts; decoding the reply is part of its latency. *)
let exchange fd ~req build =
  Spans.with_span ~req "client.request" (fun () ->
      let payload = Spans.with_span ~req "codec.encode" (fun () -> P.Request.to_string (build ())) in
      let t0 = now () in
      let raw =
        Spans.with_span ~req "wire" (fun () ->
            P.write_frame fd payload;
            Wire.read_reply fd)
      in
      let resp =
        Spans.with_span ~req "codec.decode" (fun () ->
            match P.Response.of_string raw with Ok r -> Some r | Error _ -> None)
      in
      (now () -. t0, resp))

(* ------------------------------------------------------------------ *)
(* References, computed before the serving processes start *)

type reference = {
  out : Engine.outcome;
  lb : float;
  graph : Emts_ptg.Graph.t;
  ctx : Emts_alloc.Common.ctx;
}

let resolve (wl : Gen.t) =
  ( Option.get (Emts_platform.find_preset wl.platform),
    Option.get (Emts_model.find_preset wl.model) )

(* Two domains, each with its own engine, split the distinct requests:
   the references cost about half the window they check. *)
let references (wl : Gen.t) =
  let platform, model = resolve wl in
  let keys = Array.of_list (List.sort_uniq compare (Array.to_list wl.requests)) in
  let solve part =
    let engine = Engine.create ~caches:(Engine.caches ~capacity:0 ~max_instances:1) () in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown engine)
      (fun () ->
        List.filteri (fun i _ -> i mod 2 = part) (Array.to_list keys)
        |> List.map (fun ((inst, _) as key) ->
               let req =
                 match schedule_req wl ~id:0 key with P.Request.Schedule { req; _ } -> req | _ -> assert false
               in
               let out = Result.get_ok (Engine.handle engine req ~deadline:None) in
               let graph = Result.get_ok (Emts_ptg.Serial.of_string wl.corpus.(inst)) in
               let ctx = Emts_alloc.Common.make_ctx ~model ~platform ~graph in
               (key, { out; lb = Emts_alloc.Bounds.lower_bound ctx; graph; ctx })))
  in
  let other = Domain.spawn (fun () -> solve 1) in
  let mine = solve 0 in
  let refs = Hashtbl.create 64 in
  List.iter (fun (k, r) -> Hashtbl.replace refs k r) (mine @ Domain.join other);
  refs

(* A schedule reply is correct when it equals the reference bit for bit
   and its allocation maps to a valid schedule of the same makespan. *)
let check_schedule refs key = function
  | Some (P.Response.Schedule_result r) ->
    let rf = Hashtbl.find refs key in
    let s = Emts.Algorithm.schedule_allocation ~ctx:rf.ctx r.alloc in
    if same_float r.makespan rf.out.makespan
       && r.alloc = rf.out.alloc
       && Emts_sched.Schedule.validate ~alloc:r.alloc s ~graph:rf.graph = Ok ()
       && same_float (Emts_sched.Schedule.makespan s) r.makespan
    then Some (r.makespan /. rf.lb, r.evaluations, r.generations_done)
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* One pass: start the processes, warm up, measure one window *)

type online_result = {
  submits : float list;  (** submit latencies, arrival order *)
  advance : float;
  realised : float option;  (** realised makespan if every step was correct *)
}

type pass = {
  setup_s : float;  (** this pass's start-up; a --trace 0 run reports the median of all *)
  lats : float list;  (** latencies of correct answers *)
  attempted : int;
  ok : int;
  window_s : float;
  ratios : float list;
  evals : int;
  gens : int;
  rss : float;
  before : snap;
  after : snap;
  codec : float list;  (** client encode + decode per request, s *)
}

(* Submit a session's DAGs at their arrival times, then advance it to
   completion.  A session is correct when every DAG is admitted and its
   realised makespan is at least the clairvoyant bound. *)
let drive_session fd (wl : Gen.t) ~session ~algorithm (s : Gen.session) =
  let n = Array.length s.dags in
  let steps =
    Array.to_list
      (Array.mapi
         (fun d (inst, at) ->
           let lat, resp =
             exchange fd ~req:d (fun () ->
                 submit_req wl ~id:d ~session ~algorithm ~seed:s.seed ~ptg:wl.corpus.(inst) ~at)
           in
           (lat, match resp with Some (P.Response.Submit_result { dag; _ }) -> dag = d | _ -> false))
         s.dags)
  in
  let advance, aresp =
    exchange fd ~req:n (fun () -> P.Request.Advance { id = J.Num (float_of_int n); session; to_ = None })
  in
  let realised =
    match aresp with
    | Some (P.Response.Advance_result { complete = true; makespan = Some m; bound; _ })
      when bound > 0. && m >= bound && List.for_all snd steps ->
      Some m
    | _ -> None
  in
  { submits = List.map fst steps; advance; realised }

let run_pass ~dir ~(wl : Gen.t) ~refs ~pass ~probe =
  let topo, setup_s = start_topo ~dir ~fleet:wl.fleet ~tag:pass in
  Fun.protect
    ~finally:(fun () -> stop_topo topo)
    (fun () ->
      Wire.with_conn topo.front (fun fd ->
          (* warm-up: lazy set-up, first connections and GC heaps *)
          Array.iteri (fun k r -> ignore (exchange fd ~req:k (fun () -> schedule_req wl ~id:k r))) wl.warmup;
          Spans.recorded := [];
          let before = snapshot topo in
          let t0 = now () in
          let replies = Array.mapi (fun k r -> exchange fd ~req:k (fun () -> schedule_req wl ~id:k r)) wl.requests in
          let window_s = now () -. t0 in
          let after = snapshot topo in
          let rss = sum (List.map Wire.peak_rss_mb topo.pids) in
          (* the output check, outside the window *)
          let good =
            List.filter_map
              (fun (lat, c) -> Option.map (fun c -> (lat, c)) c)
              (Array.to_list
                 (Array.mapi (fun k (lat, resp) -> (lat, check_schedule refs wl.requests.(k) resp)) replies))
          in
          let codec =
            let by_req name = Spans.self_of name in
            List.map2 (fun (_, e) (_, d) -> e +. d) (by_req "codec.encode") (by_req "codec.decode")
          in
          let p =
            {
              setup_s;
              lats = List.map fst good;
              attempted = Array.length wl.requests;
              ok = List.length good;
              window_s;
              ratios = List.map (fun (_, (r, _, _)) -> r) good;
              evals = List.fold_left (fun a (_, (_, e, _)) -> a + e) 0 good;
              gens = List.fold_left (fun a (_, (_, _, g)) -> a + g) 0 good;
              rss;
              before;
              after;
              codec;
            }
          in
          (p, probe topo fd)))

let e2e p =
  let t, note = tail p.lats in
  let answered = float_of_int (List.length p.lats) in
  ( [
      ("setup_s", p.setup_s);
      ("latency_p50_ms", 1000. *. median p.lats);
      ("latency_tail_ms", 1000. *. t);
      ("throughput_rps", float_of_int p.ok /. p.window_s);
      ("makespan_vs_lb", geomean p.ratios);
      ("ok_frac", float_of_int p.ok /. float_of_int p.attempted);
      ("peak_rss_mb", p.rss);
      ("cpu_ms_per_req", 1000. *. frac (p.after.cpu -. p.before.cpu) answered);
    ],
    note )

(* ------------------------------------------------------------------ *)
(* Probes of the traced pass, after its window *)

type probes = {
  hop_ms : float;
  session_cap : int;
  probe_session : online_result;
  probe_trace : Gen.session;
}

let migrate_rt fd (wl : Gen.t) =
  let t0 = now () in
  (match Wire.roundtrip fd (P.Request.Migrate { id = J.Null; ptg = wl.probe; platform = wl.platform; model = wl.model; migrants = [] }) with
  | P.Response.Migrate_ack _ -> ()
  | _ -> failwith "migrate: unexpected reply");
  now () -. t0

let median_rt path wl =
  Wire.with_conn path (fun fd ->
      ignore (migrate_rt fd wl);
      median (List.init 40 (fun _ -> migrate_rt fd wl)))

(* A hop through emts-router: the router forwards migrate to the
   instance's backend, which acknowledges from its reader thread.
   (ping cannot measure a hop: the router answers it itself.)  0 where
   the workload has no router. *)
let hop (wl : Gen.t) (topo : topo) =
  match topo.router with
  | Some r -> 1000. *. (median_rt r wl -. median (List.map (fun b -> median_rt b wl) topo.backends))
  | None -> 0.

(* Sessions the daemon admits before "session table full": completed
   sessions are never retired, so the count is a lifetime one. *)
let session_cap fd (wl : Gen.t) ~prior =
  let rec go i =
    if prior + i >= 256 then (prior + i, "no refusal")
    else
      match
        Wire.roundtrip fd
          (submit_req wl ~id:i ~session:(Printf.sprintf "cap-%d" i) ~algorithm:"baseline" ~seed:1
             ~ptg:wl.probe ~at:0.)
      with
      | P.Response.Submit_result _ -> go (i + 1)
      | P.Response.Error { message; _ } -> (prior + i, message)
      | _ -> (prior + i, "unexpected reply")
  in
  let cap, why = go 0 in
  Printf.printf "  online.session_cap: refused after %d sessions: %s\n" cap why;
  cap

let distinct_requests (wl : Gen.t) =
  Array.fold_left (fun acc r -> if List.mem r acc then acc else r :: acc) [] wl.requests |> List.rev

let take n l = List.filteri (fun i _ -> i < n) l

(* An online session of five of the workload's DAGs, each arriving on
   running work. *)
let probe_trace (wl : Gen.t) =
  let dags = Array.of_list (take 5 (distinct_requests wl)) in
  let ats = Gen.arrivals ~model:wl.model (Array.map (fun (i, _) -> wl.corpus.(i)) dags) in
  { Gen.seed = 1; dags = Array.mapi (fun k (i, _) -> (i, ats.(k))) dags }

let run_probes (wl : Gen.t) (topo : topo) fd =
  let hop_ms = hop wl topo in
  let probe_trace = probe_trace wl in
  let probe_session = drive_session fd wl ~session:"probe" ~algorithm:"emts5" probe_trace in
  let session_cap = session_cap fd wl ~prior:1 in
  { hop_ms; session_cap; probe_session; probe_trace }

(* ------------------------------------------------------------------ *)
(* In-process layer replay (traced pass only) *)

let config_of = function
  | "emts1" -> Emts.Algorithm.emts1
  | "emts5" -> Emts.Algorithm.emts5
  | _ -> Emts.Algorithm.emts10

(* Each call under its own span; returns the EA's evaluation counts.
   ea.run is run_ctx fed the seeds alloc.seed computed, with only the
   all-ones seed left to compute: the EA's own time, measured directly
   rather than as the difference of two timings. *)
let replay_instances (wl : Gen.t) keys =
  let platform, model = resolve wl in
  let config = config_of wl.algorithm in
  let seq = Option.get (Emts_alloc.find "seq") in
  let pool = Emts_pool.create ~domains:1 in
  Fun.protect
    ~finally:(fun () -> Emts_pool.shutdown pool)
    (fun () ->
      List.mapi
        (fun k (inst, seed) ->
          let span name f = Spans.with_span ~req:k name f in
          span "replay" (fun () ->
              let graph =
                span "ptg.parse" (fun () -> Result.get_ok (Emts_ptg.Serial.of_string wl.corpus.(inst)))
              in
              let ctx = span "model.tables" (fun () -> Emts_alloc.Common.make_ctx ~model ~platform ~graph) in
              let seeds =
                span "alloc.seed" (fun () ->
                    Emts.Seeding.collect ~heuristics:Emts.Seeding.default_heuristics ctx)
              in
              ignore (span "alloc.mcpa" (fun () -> Emts_alloc.Mcpa.allocate ctx));
              ignore (span "alloc.hcpa" (fun () -> Emts_alloc.Hcpa.allocate ctx));
              ignore (span "alloc.deltacp" (fun () -> Emts_alloc.Delta_critical.allocate ctx));
              let run ?extra_seeds config =
                let cache = Emts_pool.Cache.create ~capacity:65536 in
                Emts.Algorithm.run_ctx ~cache ~pool ~rng:(Emts_prng.create ~seed ()) ?extra_seeds ~config ~ctx ()
              in
              let result = span "ea.run_ctx" (fun () -> run config) in
              let ea =
                span "ea.run" (fun () ->
                    run
                      { config with heuristics = [ seq ] }
                      ~extra_seeds:
                        (List.filter_map
                           (fun (s : Emts.Seeding.seed) -> if s.heuristic = seq.name then None else Some s.alloc)
                           seeds))
              in
              let alloc = result.Emts.Algorithm.alloc in
              ignore (span "sched.final_map" (fun () -> Emts.Algorithm.schedule_allocation ~ctx alloc));
              let times = Emts_alloc.Common.times ctx alloc in
              ignore
                (span "sched.list_schedule" (fun () ->
                     Emts_sched.List_scheduler.makespan ~graph ~times ~alloc ~procs:ctx.Emts_alloc.Common.procs));
              ea.Emts.Algorithm.ea.Emts_ea.evaluations))
        keys)

(* The probe session in-process, on the same trace: emts5 (a span
   around each submit) and the Perotin-Sun baseline.  Returns (realised
   emts5 makespan, baseline makespan, replans). *)
let replay_session (wl : Gen.t) (s : Gen.session) =
  let platform, model = resolve wl in
  let run replanner ~traced =
    let t = Online.create (Online.config ~replanner ~seed:s.seed ~platform ~model ()) in
    Array.iteri
      (fun d (inst, at) ->
        let graph = Result.get_ok (Emts_ptg.Serial.of_string wl.corpus.(inst)) in
        let submit () = Result.get_ok (Online.submit t ~graph ~at) in
        ignore (if traced then Spans.with_span ~req:d "online.submit" submit else submit ()))
      s.dags;
    ignore (Result.get_ok (Online.advance t));
    (Option.get (Online.makespan t), Online.replans t)
  in
  let emts, replans = run (Option.get (Online.replanner_of_string "emts5")) ~traced:true in
  let base, _ = run Online.Baseline ~traced:false in
  (emts, base, replans)

(* ------------------------------------------------------------------ *)
(* Output *)

(* Prints the metrics [spec] names, in its order, with its units. *)
let print_result ~correct ~attempted ~failed ~spec metrics =
  let value name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None -> failwith ("BENCHMARK.json names " ^ name ^ ", which the benchmark does not measure")
  in
  List.iter (fun (name, unit_) -> Printf.printf "  %-32s %16.6f %s\n" name (value name) unit_) spec;
  let fields =
    List.map
      (fun (name, unit_) ->
        let v = value name in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
      spec
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let per_layer ~dir (wl : Gen.t) ~(untraced : pass) ~(traced : pass) (pr : probes) =
  let b = traced.before and a = traced.after in
  (* layer replay on the workload's own instances *)
  let keys = take (match wl.name with "seed-bound" -> 5 | _ -> 12) (distinct_requests wl) in
  let evaluations = replay_instances wl keys in
  let emts, base, replans = replay_session wl pr.probe_trace in
  let online_ok = match pr.probe_session.realised with Some m -> same_float m emts | None -> false in
  Spans.write (Filename.concat dir "spans.jsonl");
  let self name = List.map snd (Spans.self_of name) in
  let ms name = 1000. *. median (self name) in
  (* A solve is what the daemon's engine does: parse, tables, run_ctx
     (seeding and EA), final mapping. *)
  let ea_run = self "ea.run" in
  let solve = sum (List.concat_map self [ "ptg.parse"; "model.tables"; "ea.run_ctx"; "sched.final_map" ]) in
  let n_answered = float_of_int traced.ok in
  let ratio hits misses = frac (delta hits b a) (delta hits b a +. delta misses b a) in
  let hist name = hist_ms name b a in
  let q50, qt = hist "serve.queue_wait_s" and s50, st = hist "serve.solve_s" and e50, et = hist "serve.encode_s" in
  (* 1 and 0: the values of a workload without a router *)
  let affinity =
    match (b.router, a.router) with
    | Some rb, Some ra ->
      let placed doc = sum (List.map (Wire.gauge "serve.cache_instances") (Wire.backends doc)) in
      let distinct = float_of_int (List.length (distinct_requests wl)) in
      let repeats = float_of_int (Array.length wl.requests) -. distinct in
      1. -. frac (placed ra -. placed rb -. distinct) repeats
    | _ -> 1.
  in
  let session = pr.probe_session in
  let last l = List.nth l (List.length l - 1) in
  let overhead name =
    let get p = List.assoc name (fst (e2e p)) in
    get traced -. get untraced
  in
  let metrics =
    [
      ("ptg.parse_ms", ms "ptg.parse");
      ("model.tables_ms", ms "model.tables");
      ("alloc.seed_ms", ms "alloc.seed");
      ("alloc.mcpa_ms", ms "alloc.mcpa");
      ("alloc.hcpa_ms", ms "alloc.hcpa");
      ("alloc.deltacp_ms", ms "alloc.deltacp");
      ("ea.run_ms", 1000. *. median ea_run);
      ("ea.evaluations", frac (float_of_int traced.evals) n_answered);
      ("ea.generations", frac (float_of_int traced.gens) n_answered);
      ("ea.evals_per_s", frac (float_of_int (List.fold_left ( + ) 0 evaluations)) (sum ea_run));
      ("sched.list_schedule_us", 1000. *. ms "sched.list_schedule");
      ("sched.final_map_ms", ms "sched.final_map");
      ("solve.ea_share", frac (sum ea_run) solve);
      ("solve.seed_share", frac (sum (self "alloc.seed")) solve);
      ("sched.delta.reuse_frac", frac (delta "sched.delta.reused_steps" b a) (delta "sched.delta.scheduled_steps" b a));
      ("ea.cache.hit_frac", ratio "ea.cache.hits" "ea.cache.misses");
      ("ea.early_reject.frac", ratio "ea.early_reject.hits" "ea.early_reject.misses");
      ("serve.queue_wait_ms.p50", q50);
      ("serve.queue_wait_ms.tail", qt);
      ("serve.solve_ms.p50", s50);
      ("serve.solve_ms.tail", st);
      ("serve.encode_ms.p50", e50);
      ("serve.encode_ms.tail", et);
      ("serve.codec_ms", 1000. *. median traced.codec);
      ("router.hop_ms", pr.hop_ms);
      ("router.affinity_frac", affinity);
      ("router.reroutes", router_delta "router.reroutes" b a);
      ("router.unavailable", router_delta "router.unavailable" b a);
      ("online.submit_first_ms", 1000. *. List.hd session.submits);
      ("online.submit_last_ms", 1000. *. last session.submits);
      ("online.advance_ms", 1000. *. session.advance);
      ("online.replans", float_of_int replans);
      ("online.replan_ms", ms "online.submit");
      ("online.emts_gain", base /. emts);
      ("online.session_cap", float_of_int pr.session_cap);
      ("trace.overhead.latency_p50_ms", overhead "latency_p50_ms");
      ("trace.overhead.latency_tail_ms", overhead "latency_tail_ms");
      ("trace.overhead.throughput_rps", overhead "throughput_rps");
    ]
  in
  (metrics, online_ok)

(* ------------------------------------------------------------------ *)

let usage = "bench.exe --workload NAME --seed N --seconds S (--trace 0|1 | --emit DIR)"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. and trace = ref (-1) and emit = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Gen.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--emit", Arg.Set_string emit, "DIR write the generated inputs to DIR and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Gen.names) || not (!seconds > 0.) || (!emit = "" && !trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let wl = Gen.make ~name:!workload ~seed:!seed ~seconds:!seconds in
  if !emit <> "" then begin
    List.iter
      (fun (file, contents) ->
        let path = Filename.concat !emit file in
        ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote (Filename.dirname path))));
        Emts_resilience.write_string ~path contents)
      (Gen.files wl);
    exit 0
  end;
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        prerr_endline (exe ^ ": not built (run from the repository root after dune build)");
        exit 2
      end)
    [ serve_exe; router_exe ];
  at_exit Wire.kill_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Printf.sprintf "perfbench/out/%s-%d-t%d" wl.name !seed !trace in
  ignore (Sys.command (Printf.sprintf "rm -rf %s && mkdir -p %s" (Filename.quote dir) (Filename.quote dir)));
  let spec = Spec.load "BENCHMARK.json" in
  (* setup_s is reported by untraced runs only *)
  let groups = ref [] in
  let extra_startups tag =
    if !trace = 0 then groups := startups ~dir ~fleet:wl.fleet ~tag setup_group :: !groups
  in
  extra_startups "a";
  let refs = references wl in
  extra_startups "b";
  let no_probe _ _ = () in
  let untraced, () = run_pass ~dir ~wl ~refs ~pass:"u" ~probe:no_probe in
  Printf.printf "%s seed %d: %d requests in %.2f s\n" wl.name !seed untraced.attempted untraced.window_s;
  if !trace = 0 then begin
    extra_startups "c";
    let untraced = { untraced with setup_s = median (untraced.setup_s :: List.concat !groups) } in
    let metrics, note = e2e untraced in
    print_endline ("  " ^ note);
    let failed = untraced.attempted - untraced.ok in
    print_result ~correct:(failed = 0) ~attempted:untraced.attempted ~failed ~spec:spec.end_to_end metrics
  end
  else begin
    Spans.enabled := true;
    let traced, probes = run_pass ~dir ~wl ~refs ~pass:"t" ~probe:(run_probes wl) in
    let metrics, online_ok = per_layer ~dir wl ~untraced ~traced probes in
    Spans.enabled := false;
    print_endline ("  traced pass: " ^ snd (e2e traced));
    let attempted = untraced.attempted + traced.attempted in
    let failed = attempted - untraced.ok - traced.ok in
    print_result ~correct:(failed = 0 && online_ok) ~attempted ~failed ~spec:spec.per_layer metrics
  end
