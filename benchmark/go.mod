module selfemerge/benchmark

go 1.23

require selfemerge v0.0.0

replace selfemerge => ../
