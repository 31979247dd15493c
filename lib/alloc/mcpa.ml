let name = "MCPA"

let allocate ctx =
  let procs = ctx.Common.procs in
  Common.growth_loop ~gain:Common.Efficiency
    ~eligible:(fun ~level_total _v -> level_total < procs)
    ctx
