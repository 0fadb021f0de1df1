module flit/benchmark

go 1.24

require flit v0.0.0

replace flit => ../
