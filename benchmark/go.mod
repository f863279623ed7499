module mvptree/benchmark

go 1.24

require mvptree v0.0.0

replace mvptree => ../
