module tashkent/bench

go 1.22

require tashkent v0.0.0

replace tashkent => ../
