module mpj/benchmark

go 1.24

require mpj v0.0.0

replace mpj => ../
