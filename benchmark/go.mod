module shift/benchmark

go 1.22

require shift v0.0.0

replace shift => ../
