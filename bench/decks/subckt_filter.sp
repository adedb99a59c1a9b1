three cascaded RC sections via subcircuits
.subckt rcsec a b
R1 a b 1k
C1 b 0 100p
.ends
VIN in 0 PULSE(0 1 10n 1n 1n 500n 1u) AC 1
X1 in m1 rcsec
X2 m1 m2 rcsec
X3 m2 out rcsec
.ac dec 8 100k 100meg
.tran 1n 1u
.end
