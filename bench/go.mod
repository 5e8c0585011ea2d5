module github.com/hpcclab/oparaca-go/bench

go 1.24

require github.com/hpcclab/oparaca-go v0.0.0

replace github.com/hpcclab/oparaca-go => ../
