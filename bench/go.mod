module tetrisjoin/bench

go 1.22

require tetrisjoin v0.0.0

replace tetrisjoin => ../
