CREATE TABLE e (v1, v2);
INSERT INTO e VALUES (1,2),(2,3),(4,5),(6,7),(7,8);
CREATE TABLE f AS SELECT v1, min(v2) AS m FROM e GROUP BY v1;
SELECT count(*) AS n FROM f AS t;
\stats
