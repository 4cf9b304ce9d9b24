module dbcc/benchmark

go 1.22

require dbcc v0.0.0

replace dbcc => ../
