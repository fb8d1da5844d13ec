module csrgraph/bench

go 1.23

require csrgraph v0.0.0

replace csrgraph => ../
