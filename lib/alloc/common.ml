module Graph = Emts_ptg.Graph
module Analysis = Emts_ptg.Analysis

type ctx = {
  graph : Graph.t;
  procs : int;
  tables : float array array;
}

let make_ctx ~model ~platform ~graph =
  {
    graph;
    procs = platform.Emts_platform.processors;
    tables = Emts_model.Memo.tabulate_graph model platform graph;
  }

let time_of ctx alloc v = ctx.tables.(v).(alloc.(v) - 1)

let times ctx alloc =
  Array.init (Graph.task_count ctx.graph) (time_of ctx alloc)

let critical_path ctx alloc =
  Analysis.critical_path ctx.graph ~time:(time_of ctx alloc)

type gain = Efficiency | Absolute

(* Inlined so the growth loop reads each candidate's gain unboxed: a
   call boxes the float result, ~50 minor words per step at n=1000. *)
let[@inline] gain_value ctx alloc gain v =
  let s = alloc.(v) in
  if s >= ctx.procs then neg_infinity
  else begin
    let now = ctx.tables.(v).(s - 1) and next = ctx.tables.(v).(s) in
    match gain with
    | Efficiency -> (now /. float_of_int s) -. (next /. float_of_int (s + 1))
    | Absolute -> now -. next
  end

let m_steps =
  Emts_obs.Metrics.counter "alloc.growth.steps"
    ~help:"Processors added by the CPA-family growth loop (one per step)."

let m_relaxed =
  Emts_obs.Metrics.counter "alloc.growth.relaxed"
    ~help:"Bottom levels recomputed by the CPA-family growth loop."

(* The loop keeps the per-task times, the bottom levels and the
   per-level allocation totals as state and updates them after each
   step, instead of recomputing the graph.  Every value it compares is
   the float the from-scratch definitions compute:
   - [bl] is [Analysis.bottom_levels] at the start; after a step the
     grown task and every task before it in topological order are
     recomputed in place, with the same [t +. max succ bl] in the same
     successor order.  Bottom levels are never NaN or -0. (times are checked
     non-negative), so [if b > m then m := b] folds exactly like
     [Float.max].
   - [T_CP], the maximum bottom level, is attained at a source: a task's
     [bl] is at least each successor's, since adding a non-negative time
     never rounds below the addend.
   - [T_A] is re-summed in index order each step, as [Analysis.work]
     does: a running sum updated by differences would round differently.
   - The critical-path walk is [Analysis.critical_path]'s: the first
     source, then the first successor, with the strictly largest bl. *)
let growth_loop ~gain ~eligible ctx =
  let g = ctx.graph and procs = ctx.procs in
  let n = Graph.task_count g in
  let alloc = Array.make n 1 in
  if n > 0 then begin
    let time = Array.init n (fun v -> ctx.tables.(v).(0)) in
    let bl = Analysis.bottom_levels g ~time:(Array.get time) in
    let sources = Array.of_list (Graph.sources g) in
    let topo = Graph.topological_order g in
    let pos = Array.make n 0 in
    Array.iteri (fun k v -> pos.(v) <- k) topo;
    let level = Graph.precedence_level g in
    let level_total = Array.make (max 1 (Graph.level_count g)) 0 in
    Array.iter (fun lv -> level_total.(lv) <- level_total.(lv) + 1) level;
    let steps = ref 0 and relaxed = ref 0 in
    (* Recompute bottom levels after [v]'s time changed: only [v] and
       the tasks before it in topological order can be its ancestors;
       sweeping them backwards means every recomputation sees final
       successors. *)
    let relax v =
      for k = pos.(v) downto 0 do
        let u = topo.(k) in
        let succ = Graph.succs g u in
        let m = ref 0. in
        for i = 0 to Array.length succ - 1 do
          let b = bl.(succ.(i)) in
          if b > !m then m := b
        done;
        bl.(u) <- time.(u) +. !m
      done;
      relaxed := !relaxed + pos.(v) + 1
    in
    let continue = ref true in
    while !continue do
      let t_cp = ref neg_infinity and start = ref (-1) in
      for i = 0 to Array.length sources - 1 do
        let s = sources.(i) in
        if bl.(s) > !t_cp then begin
          t_cp := bl.(s);
          start := s
        end
      done;
      let work = ref 0. in
      for v = 0 to n - 1 do
        work := !work +. (time.(v) *. float_of_int alloc.(v))
      done;
      if !t_cp <= !work /. float_of_int procs then continue := false
      else begin
        (* Best eligible critical-path task: the first in path order
           among those with the largest gain. *)
        let best = ref (-1) and best_gain = ref 0. in
        let v = ref !start in
        while !v >= 0 do
          let u = !v in
          if eligible ~level_total:level_total.(level.(u)) u then begin
            let gu = gain_value ctx alloc gain u in
            if not (!best >= 0 && !best_gain >= gu) && gu <> neg_infinity
            then begin
              best := u;
              best_gain := gu
            end
          end;
          let succ = Graph.succs g u in
          v := -1;
          for i = 0 to Array.length succ - 1 do
            let w = succ.(i) in
            if !v < 0 || bl.(w) > bl.(!v) then v := w
          done
        done;
        if !best >= 0 && !best_gain > 0. then begin
          let u = !best in
          alloc.(u) <- alloc.(u) + 1;
          level_total.(level.(u)) <- level_total.(level.(u)) + 1;
          let t = time_of ctx alloc u in
          if Float.is_nan t || t < 0. then
            invalid_arg
              (Printf.sprintf
                 "Common.growth_loop: time of node %d is invalid (%g)" u t);
          time.(u) <- t;
          incr steps;
          relax u
        end
        else continue := false
      end
    done;
    Emts_obs.Metrics.add m_steps !steps;
    Emts_obs.Metrics.add m_relaxed !relaxed
  end;
  alloc
