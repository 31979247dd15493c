let name = "HCPA"

let allocate ctx =
  Common.growth_loop ~gain:Common.Absolute
    ~eligible:(fun ~level_total:_ _v -> true)
    ctx
