(* Tests for the allocation heuristics: CPA, HCPA, MCPA, Delta-critical,
   the registry, and the shared growth loop. *)

module A = Emts_alloc
module Common = Emts_alloc.Common
module Graph = Emts_ptg.Graph

let chti = Emts_platform.chti

let ctx_of ?(model = Emts_model.amdahl) ?(platform = chti) g =
  Common.make_ctx ~model ~platform ~graph:g

(* Chain of perfectly parallel tasks: every task is always on the
   critical path and spans shrink by 1/p, so CPA must push every
   allocation to the full cluster (T_CP = T_A exactly there). *)
let test_cpa_chain_alpha0 () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 3)
  in
  let alloc = A.Cpa.allocate (ctx_of g) in
  Alcotest.(check (array int)) "all tasks get P" [| 20; 20; 20 |] alloc

let test_cpa_stops_at_ta () =
  (* Wide level of identical tasks: T_A ~ V*T1/(P) stays put while the
     (single-task) critical path shrinks; CPA stops growing once
     T_CP <= T_A, so allocations stay small. *)
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.independent 20)
  in
  let alloc = A.Cpa.allocate (ctx_of g) in
  (* 20 unit tasks on 20 procs: T_A = 1 = T_CP at all-ones already. *)
  Alcotest.(check (array int)) "no growth needed" (Array.make 20 1) alloc

let test_growth_loop_respects_eligibility () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 2)
  in
  let alloc =
    Common.growth_loop ~gain:Common.Efficiency
      ~eligible:(fun ~level_total v -> v = 0 && level_total < 5)
      (ctx_of g)
  in
  Alcotest.(check int) "capped task" 5 alloc.(0);
  Alcotest.(check int) "ineligible task" 1 alloc.(1);
  (* the level total handed to the predicate is the live sum: capping
     it at 7 on a chain (one task per level) caps each task at 7 *)
  let alloc =
    Common.growth_loop ~gain:Common.Efficiency
      ~eligible:(fun ~level_total _v -> level_total < 7)
      (ctx_of g)
  in
  Alcotest.(check (array int)) "level-capped chain" [| 7; 7 |] alloc

(* The growth counters: one step per added processor, so
   [alloc.growth.steps] grows by sum (alloc.(v) - 1); every step
   recomputes at least the grown task's bottom level. *)
let test_growth_counters () =
  Emts_obs.Metrics.set_enabled true;
  let g = Testutil.costed_daggen (Emts_prng.create ~seed:5 ()) ~n:40 in
  let ctx = ctx_of ~model:Emts_model.amdahl g in
  let count name =
    Option.value ~default:0 (Emts_obs.Metrics.find_counter name)
  in
  List.iter
    (fun (name, allocate) ->
      let steps0 = count "alloc.growth.steps"
      and relaxed0 = count "alloc.growth.relaxed" in
      let alloc = allocate ctx in
      let steps = count "alloc.growth.steps" - steps0
      and relaxed = count "alloc.growth.relaxed" - relaxed0 in
      Alcotest.(check int)
        (name ^ ": steps = processors added")
        (Array.fold_left (fun acc s -> acc + s - 1) 0 alloc)
        steps;
      Alcotest.(check bool) (name ^ ": the loop grew something") true
        (steps > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: relaxed %d >= steps %d" name relaxed steps)
        true (relaxed >= steps))
    [ ("CPA", A.Cpa.allocate); ("HCPA", A.Hcpa.allocate);
      ("MCPA", A.Mcpa.allocate) ];
  Emts_obs.Metrics.set_enabled false

let test_gain_value () =
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ~alpha:0.5 ())
      (Emts_daggen.Shapes.independent 1)
  in
  let ctx = ctx_of g in
  let alloc = [| 1 |] in
  (* T(1) = 1, T(2) = 0.75: absolute gain 0.25, efficiency 1 - 0.375 *)
  Alcotest.(check (float 1e-9)) "absolute" 0.25
    (Common.gain_value ctx alloc Common.Absolute 0);
  Alcotest.(check (float 1e-9)) "efficiency" 0.625
    (Common.gain_value ctx alloc Common.Efficiency 0);
  (* at the cluster size no further gain exists *)
  Alcotest.(check bool) "full allocation" true
    (Common.gain_value ctx [| 20 |] Common.Absolute 0 = neg_infinity)

let test_hcpa_differs_from_cpa () =
  (* Two-task chain: A has tiny absolute but large efficiency gain; B the
     opposite, so the first growth step diverges and so do the results. *)
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_task ~name:"A" ~flop:(100. *. 4.3e9) ~alpha:0.9 b in
  let c = Graph.Builder.add_task ~name:"B" ~flop:(60. *. 4.3e9) ~alpha:0. b in
  Graph.Builder.add_edge b ~src:a ~dst:c;
  let g = Graph.Builder.build b in
  let ctx = ctx_of g in
  let one = [| 1; 1 |] in
  Alcotest.(check bool) "efficiency prefers A" true
    (Common.gain_value ctx one Common.Efficiency 0
    > Common.gain_value ctx one Common.Efficiency 1);
  Alcotest.(check bool) "absolute prefers B" true
    (Common.gain_value ctx one Common.Absolute 1
    > Common.gain_value ctx one Common.Absolute 0)

(* CPR grows by actual makespan reduction, so its result can never be
   worse than the all-ones schedule, and each accepted step strictly
   improved the schedule. *)
let cpr_makespan ctx alloc =
  let times = Common.times ctx alloc in
  Emts_sched.List_scheduler.makespan ~graph:ctx.Common.graph ~times ~alloc
    ~procs:ctx.Common.procs

let test_cpr_improves_chain () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 4)
  in
  let ctx = ctx_of g in
  let alloc = A.Cpr.allocate ctx in
  (* perfectly parallel chain: CPR drives everything to the full cluster *)
  Alcotest.(check (array int)) "chain fully widened" (Array.make 4 20) alloc

let test_cpr_never_worse_than_seq () =
  let rng = Emts_prng.create ~seed:31 () in
  for _ = 1 to 10 do
    let g =
      Testutil.costed_daggen rng ~n:20 ~width:0.6
    in
    let ctx = ctx_of ~model:Emts_model.synthetic g in
    let seq = cpr_makespan ctx (Array.make 20 1) in
    let cpr = cpr_makespan ctx (A.Cpr.allocate ctx) in
    Alcotest.(check bool) "cpr <= seq" true (cpr <= seq +. 1e-9)
  done

let test_cpr_beats_cpa_usually () =
  (* CPR optimises the real makespan, CPA an analytic proxy: under a
     MONOTONE model CPR should win or tie on a clear majority.  (Under
     Model 2 CPR is greedier than CPA and gets trapped: a single +1
     processor step usually *increases* a task's time, so it stops at
     once — exactly the pathology that motivates EMTS's multi-processor
     mutation steps.) *)
  let rng = Emts_prng.create ~seed:32 () in
  let wins = ref 0 and n = 10 in
  for _ = 1 to n do
    let g =
      Testutil.costed_daggen rng ~n:25 ~width:0.6
    in
    let ctx = ctx_of ~model:Emts_model.amdahl g in
    let cpa = cpr_makespan ctx (A.Cpa.allocate ctx) in
    let cpr = cpr_makespan ctx (A.Cpr.allocate ctx) in
    if cpr <= cpa +. 1e-9 then incr wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "CPR at least ties CPA on %d/%d (Model 1)" !wins n)
    true
    (!wins >= 7)

let test_mcpa_level_budget () =
  (* A single wide level cannot be allocated more than P in total. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:(10. *. 4.3e9) ())
      (Emts_daggen.Shapes.independent 8)
  in
  let alloc = A.Mcpa.allocate (ctx_of g) in
  let total = Array.fold_left ( + ) 0 alloc in
  Alcotest.(check bool) "level total within P" true (total <= 20)

let test_mcpa_bounds_all_levels_random () =
  let rng = Emts_prng.create ~seed:11 () in
  for _ = 1 to 20 do
    let g =
      Testutil.costed_daggen rng ~n:40 ~width:0.7 ~density:0.4
    in
    let ctx = ctx_of ~model:Emts_model.synthetic g in
    let alloc = A.Mcpa.allocate ctx in
    let level = Graph.precedence_level g in
    let totals = Array.make (Graph.level_count g) 0 in
    Array.iteri (fun v s -> totals.(level.(v)) <- totals.(level.(v)) + s) alloc;
    Array.iteri
      (fun lv total ->
        (* the budget may be reached, never exceeded... except where the
           level has more than P tasks, which cannot happen here *)
        Alcotest.(check bool)
          (Printf.sprintf "level %d within budget" lv)
          true (total <= 20))
      totals
  done

let test_delta_critical_diamond () =
  (* Diamond bl (sequential) = [80;60;70;40]:
     level 0: {0} critical -> P; level 1: max 70, cutoff 63 -> {2}
     critical (60 < 63), so alloc 2 = P and alloc 1 = 1; level 2: {3}. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id
          ~flop:((Testutil.unit_speed_times (Testutil.diamond_graph ()))
                   t.Emts_ptg.Task.id
                *. 4.3e9)
          ())
      (Testutil.diamond_graph ())
  in
  let alloc = A.Delta_critical.allocate ~delta:0.9 (ctx_of g) in
  Alcotest.(check (array int)) "allocation" [| 20; 1; 20; 20 |] alloc

let test_delta_zero_shares_everything () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.independent 4)
  in
  (* all 4 tasks critical at delta=0 -> 20/4 = 5 procs each *)
  Alcotest.(check (array int)) "even share" [| 5; 5; 5; 5 |]
    (A.Delta_critical.allocate ~delta:0. (ctx_of g));
  Alcotest.(check bool) "bad delta rejected" true
    (try
       ignore (A.Delta_critical.allocate ~delta:1.5 (ctx_of g));
       false
     with Invalid_argument _ -> true)

let test_sequential_baseline () =
  let g = Emts_daggen.Shapes.diamond 2 in
  Alcotest.(check (array int)) "all ones" (Array.make 6 1)
    (A.Sequential.allocate (ctx_of g))

let test_registry () =
  Alcotest.(check int) "six heuristics" 6 (List.length A.all);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " found") true (A.find name <> None))
    [ "seq"; "CPA"; "hcpa"; "McPa"; "cpr"; "DELTACP" ];
  Alcotest.(check bool) "unknown" true (A.find "magic" = None)

let test_allocate_convenience () =
  let g = Emts_daggen.Shapes.chain 2 in
  match A.find "mcpa" with
  | None -> Alcotest.fail "mcpa missing"
  | Some h ->
    let alloc =
      A.allocate h ~model:Emts_model.amdahl ~platform:chti ~graph:g
    in
    Alcotest.(check int) "length" 2 (Array.length alloc)

(* --- lower bounds --- *)

let test_bounds_single_task () =
  (* one task, alpha=0, T1 = 10 s on chti: best time 0.5 s at p=20,
     best area = sequential area 10 (monotone model). *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:(10. *. 4.3e9) ())
      (Emts_daggen.Shapes.independent 1)
  in
  let ctx = ctx_of g in
  Alcotest.(check (float 1e-9)) "best_time" 0.5 (A.Bounds.best_time ctx 0);
  Alcotest.(check (float 1e-9)) "best_area" 10. (A.Bounds.best_area ctx 0);
  Alcotest.(check (float 1e-9)) "cp bound" 0.5
    (A.Bounds.critical_path_bound ctx);
  Alcotest.(check (float 1e-9)) "area bound" 0.5 (A.Bounds.area_bound ctx);
  Alcotest.(check (float 1e-9)) "lower bound" 0.5 (A.Bounds.lower_bound ctx)

let test_bounds_area_dominates_when_wide () =
  (* 40 sequential-ish tasks on 20 procs: area bound = 40*T1/20 = 2*T1
     exceeds the single-task cp bound. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ~alpha:1. ())
      (Emts_daggen.Shapes.independent 40)
  in
  let ctx = ctx_of g in
  Alcotest.(check (float 1e-9)) "area bound" 2. (A.Bounds.area_bound ctx);
  Alcotest.(check (float 1e-9)) "cp bound" 1.
    (A.Bounds.critical_path_bound ctx);
  Alcotest.(check (float 1e-9)) "lb = area" 2. (A.Bounds.lower_bound ctx)

let prop_bounds_below_any_schedule =
  QCheck.Test.make
    ~name:"lower bound <= makespan of every heuristic's schedule" ~count:60
    (Testutil.arbitrary_dag ~max_n:20 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      let lb = A.Bounds.lower_bound ctx in
      List.for_all
        (fun (h : A.heuristic) ->
          let alloc = h.allocate ctx in
          let m = cpr_makespan ctx alloc in
          lb <= m +. 1e-9 && A.Bounds.gap ctx ~makespan:m >= 1. -. 1e-9)
        A.all)

(* Every heuristic always returns a valid allocation. *)
let prop_heuristics_valid =
  QCheck.Test.make ~name:"heuristic allocations validate" ~count:60
    (Testutil.arbitrary_dag ~max_n:20 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      List.for_all
        (fun (h : A.heuristic) ->
          Emts_sched.Allocation.validate (h.allocate ctx) ~graph:g ~procs:20
          = Ok ())
        A.all)

let prop_heuristics_deterministic =
  QCheck.Test.make ~name:"heuristics are deterministic" ~count:40
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      List.for_all
        (fun (h : A.heuristic) -> h.allocate ctx = h.allocate ctx)
        A.all)

(* The CPA growth loop written straight from its definition: at every
   step recompute T_CP, T_A and one critical path from scratch with
   [Analysis], pick the eligible critical-path task with the best
   positive gain (first in path order on ties), grow it by one.  MCPA's
   eligibility rescans all tasks of the level.  The allocators must
   agree with it exactly. *)
let reference_growth ~gain ~level_budget ctx =
  let g = ctx.Common.graph and procs = ctx.Common.procs in
  let n = Graph.task_count g in
  let alloc = Array.make n 1 in
  let level = Graph.precedence_level g in
  let level_total lv =
    let total = ref 0 in
    Array.iteri (fun v l -> if l = lv then total := !total + alloc.(v)) level;
    !total
  in
  let eligible v = (not level_budget) || level_total level.(v) < procs in
  let time v = ctx.Common.tables.(v).(alloc.(v) - 1) in
  let rec step () =
    let t_cp = Emts_ptg.Analysis.critical_path_length g ~time in
    let t_a =
      Emts_ptg.Analysis.average_area g ~time ~alloc:(fun v -> alloc.(v))
        ~procs
    in
    if n > 0 && t_cp > t_a then begin
      let best = ref None in
      List.iter
        (fun v ->
          if eligible v then begin
            let gv = Common.gain_value ctx alloc gain v in
            match !best with
            | Some (_, gb) when gb >= gv -> ()
            | _ when gv = neg_infinity -> ()
            | _ -> best := Some (v, gv)
          end)
        (Emts_ptg.Analysis.critical_path g ~time);
      match !best with
      | Some (v, gv) when gv > 0. ->
        alloc.(v) <- alloc.(v) + 1;
        step ()
      | _ -> ()
    end
  in
  step ();
  alloc

let prop_growth_loop_matches_reference =
  QCheck.Test.make ~name:"CPA/HCPA/MCPA = growth loop from the definition"
    ~count:150
    QCheck.(
      pair (Testutil.arbitrary_dag ~max_n:30 ())
        (triple (int_range 0 (List.length Emts_check.Scenario.models - 1))
           (int_range 1 24) bool))
    (fun (g, (m, procs, zero_some)) ->
      (* zero-cost tasks give zero gains and ties in bottom levels *)
      let g =
        if not zero_some then g
        else
          Graph.map_tasks
            (fun t ->
              if t.Emts_ptg.Task.id mod 3 = 0 then
                { t with Emts_ptg.Task.flop = 0.; pattern = Emts_ptg.Task.Direct }
              else t)
            g
      in
      let model = snd (List.nth Emts_check.Scenario.models m) in
      let platform =
        Emts_platform.make ~name:"ref" ~processors:procs ~speed_gflops:1.
      in
      let ctx = ctx_of ~model ~platform g in
      A.Cpa.allocate ctx
      = reference_growth ~gain:Common.Efficiency ~level_budget:false ctx
      && A.Hcpa.allocate ctx
         = reference_growth ~gain:Common.Absolute ~level_budget:false ctx
      && A.Mcpa.allocate ctx
         = reference_growth ~gain:Common.Efficiency ~level_budget:true ctx)

let () =
  Alcotest.run "alloc"
    [
      ( "cpa",
        [
          Alcotest.test_case "chain alpha=0 fills cluster" `Quick
            test_cpa_chain_alpha0;
          Alcotest.test_case "stops at T_A" `Quick test_cpa_stops_at_ta;
          Alcotest.test_case "eligibility respected" `Quick
            test_growth_loop_respects_eligibility;
          Alcotest.test_case "gain values" `Quick test_gain_value;
          Alcotest.test_case "growth counters" `Quick test_growth_counters;
        ] );
      ( "hcpa",
        [ Alcotest.test_case "criterion differs from CPA" `Quick test_hcpa_differs_from_cpa ] );
      ( "cpr",
        [
          Alcotest.test_case "chain fully widened" `Quick
            test_cpr_improves_chain;
          Alcotest.test_case "never worse than SEQ" `Quick
            test_cpr_never_worse_than_seq;
          Alcotest.test_case "usually beats CPA" `Slow
            test_cpr_beats_cpa_usually;
        ] );
      ( "mcpa",
        [
          Alcotest.test_case "level budget" `Quick test_mcpa_level_budget;
          Alcotest.test_case "budget on random PTGs" `Quick
            test_mcpa_bounds_all_levels_random;
        ] );
      ( "delta-critical",
        [
          Alcotest.test_case "diamond" `Quick test_delta_critical_diamond;
          Alcotest.test_case "delta=0" `Quick test_delta_zero_shares_everything;
        ] );
      ( "registry",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_baseline;
          Alcotest.test_case "lookup" `Quick test_registry;
          Alcotest.test_case "allocate convenience" `Quick
            test_allocate_convenience;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "single task" `Quick test_bounds_single_task;
          Alcotest.test_case "area dominates" `Quick
            test_bounds_area_dominates_when_wide;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heuristics_valid;
            prop_heuristics_deterministic;
            prop_bounds_below_any_schedule;
            prop_growth_loop_matches_reference;
          ] );
    ]
