let name = "CPA"

let allocate ctx =
  Common.growth_loop ~gain:Common.Efficiency
    ~eligible:(fun ~level_total:_ _v -> true)
    ctx
